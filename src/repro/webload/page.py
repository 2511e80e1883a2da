"""Page specifications.

A page is a root HTML object plus a set of sub-resources (scripts, styles,
images, fonts), each hosted on some domain and *discovered* by another
object: nothing can be fetched before the object that references it has
arrived.  This dependency structure is what makes DNS latency matter — a
slow resolver stalls the first fetch from every new domain on the critical
path (WProf's observation that uncached lookups can be ~13% of it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import CampaignConfigError


@dataclass(frozen=True)
class ObjectSpec:
    """One fetchable resource."""

    name: str
    domain: str
    size_bytes: int
    discovered_by: Optional[str] = None  # None = the root object

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise CampaignConfigError(f"{self.name}: size must be positive")


@dataclass
class PageSpec:
    """A full page: root object plus sub-resources."""

    root: ObjectSpec
    objects: List[ObjectSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = {self.root.name}
        for spec in self.objects:
            if spec.name in names:
                raise CampaignConfigError(f"duplicate object name {spec.name!r}")
            names.add(spec.name)
        for spec in self.objects:
            parent = spec.discovered_by or self.root.name
            if parent not in names:
                raise CampaignConfigError(
                    f"{spec.name} discovered by unknown object {parent!r}"
                )
        # Reject dependency cycles (the loader would deadlock).
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        parents = {spec.name: spec.discovered_by or self.root.name for spec in self.objects}
        for start in parents:
            seen = {start}
            node = parents[start]
            while node != self.root.name:
                if node in seen:
                    raise CampaignConfigError(f"dependency cycle through {node!r}")
                seen.add(node)
                node = parents.get(node, self.root.name)

    @property
    def all_objects(self) -> List[ObjectSpec]:
        return [self.root] + list(self.objects)

    @property
    def domains(self) -> List[str]:
        ordered: List[str] = []
        for spec in self.all_objects:
            if spec.domain not in ordered:
                ordered.append(spec.domain)
        return ordered

    @property
    def total_bytes(self) -> int:
        return sum(spec.size_bytes for spec in self.all_objects)

    def children_of(self, name: str) -> List[ObjectSpec]:
        return [
            spec
            for spec in self.objects
            if (spec.discovered_by or self.root.name) == name
        ]


def simple_page(
    primary_domain: str,
    object_domains: Sequence[str],
    objects_per_domain: int = 2,
) -> PageSpec:
    """A flat page: HTML on the primary domain, objects fanned out."""
    root = ObjectSpec(name="index.html", domain=primary_domain, size_bytes=40_000)
    objects = []
    for domain_index, domain in enumerate(object_domains):
        for object_index in range(objects_per_domain):
            objects.append(
                ObjectSpec(
                    name=f"obj-{domain_index}-{object_index}",
                    domain=domain,
                    size_bytes=20_000,
                )
            )
    return PageSpec(root=root, objects=objects)


def news_site_page(
    primary_domain: str,
    third_party_domains: Sequence[str],
) -> PageSpec:
    """A nested page shaped like a media site.

    HTML discovers CSS/JS on the primary domain; the JS discovers
    third-party resources (ads/analytics/CDN images); one third-party
    script discovers yet another domain — a three-level critical path,
    where late-discovered domains pay their DNS lookup mid-load.
    """
    if len(third_party_domains) < 2:
        raise CampaignConfigError("news_site_page needs >= 2 third-party domains")
    root = ObjectSpec(name="index.html", domain=primary_domain, size_bytes=60_000)
    objects = [
        ObjectSpec("app.css", primary_domain, 30_000),
        ObjectSpec("app.js", primary_domain, 120_000),
        ObjectSpec("hero.jpg", primary_domain, 200_000),
    ]
    for index, domain in enumerate(third_party_domains):
        objects.append(
            ObjectSpec(
                name=f"vendor-{index}.js",
                domain=domain,
                size_bytes=40_000,
                discovered_by="app.js",
            )
        )
        objects.append(
            ObjectSpec(
                name=f"asset-{index}.img",
                domain=domain,
                size_bytes=80_000,
                discovered_by=f"vendor-{index}.js",
            )
        )
    return PageSpec(root=root, objects=objects)
