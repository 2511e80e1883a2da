"""Config-driven measurement service (the Netrics integration shape).

The paper's tool ran inside Netrics: operators describe measurement tests
declaratively and the platform schedules them and writes JSON results.
Here a campaign file (JSON, or TOML by its suffix) says what to measure:
the :class:`~repro.core.runner.CampaignConfig` every run uses, the vantage
points, and the resolvers -- by name, by region, by mainstream tier, or
all.  ``repro-dns measure --spec FILE`` runs one like any other campaign.

Example campaign file::

    {
      "vantages": ["ec2-frankfurt"],
      "resolvers": {"region": "EU"},
      "campaign": {
        "name": "nightly-eu",
        "transport": "dot",
        "schedule": {"rounds": 4, "interval_ms": 21600000.0, "stagger_ms": 300000.0}
      }
    }
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Mapping, Optional, Tuple, Union

from repro.catalog.resolvers import CATALOG
from repro.core.runner import CampaignConfig
from repro.errors import CampaignConfigError
from repro.files import check_spec, read_document, spec_from_table


@dataclass(frozen=True)
class ResolverFilter:
    """A ``resolvers`` table: the catalog entries matching every key given."""

    region: Optional[str] = None
    mainstream: Optional[bool] = None
    anycast: Optional[bool] = None

    def __post_init__(self) -> None:
        check_spec(self, CampaignConfigError, "campaign file 'resolvers'")


@dataclass(frozen=True)
class CampaignFile:
    """One campaign file: the campaign, where it runs from and what it
    measures.

    An unknown key, a missing ``campaign`` table or a value of the wrong
    shape raises :class:`CampaignConfigError`, so configuration typos fail
    loudly rather than silently measuring the wrong thing.
    """

    campaign: CampaignConfig
    vantages: Tuple[str, ...] = ("ec2-ohio",)
    #: ``"all"``, a list of hostnames or a :class:`ResolverFilter` table.
    resolvers: Union[str, Tuple[str, ...], ResolverFilter] = "all"

    def __post_init__(self) -> None:
        check_spec(self, CampaignConfigError, "campaign file")
        select_targets(self.resolvers)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CampaignFile":
        """Read and check a campaign file (JSON, or TOML by its suffix)."""
        data = read_document(path, CampaignConfigError, "campaign file")
        return spec_from_table(cls, data, CampaignConfigError, f"campaign file {path}")


def select_targets(selector: Any) -> List[str]:
    """Resolve a ``resolvers`` selector against the catalog.

    Accepts ``"all"``, a list of hostnames, or a :class:`ResolverFilter` or
    the table one is read from: any of ``region`` (continent code),
    ``mainstream`` and ``anycast`` (true or false).  Returns the selected
    hostnames in catalog order.
    """
    if isinstance(selector, Mapping):
        selector = spec_from_table(
            ResolverFilter, dict(selector), CampaignConfigError, "campaign file 'resolvers'"
        )
    if selector == "all" or selector is None:
        entries = CATALOG
    elif isinstance(selector, ResolverFilter):
        wanted = [(key, v) for key, v in vars(selector).items() if v is not None]
        entries = [e for e in CATALOG if all(getattr(e, k) == v for k, v in wanted)]
    elif isinstance(selector, (list, tuple)):
        hostnames = [e.hostname for e in CATALOG]
        unknown = {str(name) for name in selector if name not in hostnames}
        if unknown:
            raise CampaignConfigError(f"unknown resolvers: {', '.join(sorted(unknown))}")
        entries = [e for e in CATALOG if e.hostname in selector]
    else:
        raise CampaignConfigError(f"bad resolver selector: {selector!r}")
    if not entries:
        raise CampaignConfigError(f"resolver selector matched nothing: {selector}")
    return [e.hostname for e in entries]
