"""Config-driven measurement service (the Netrics integration shape).

The paper's tool ran inside Netrics: operators describe measurement tests
declaratively and the platform schedules them and writes JSON results.
This module gives the library the same operational surface: a JSON/dict
test specification that selects vantage points, resolvers (by name, by
region, by mainstream tier, or all), transport, domains and schedule —
plus a runner that plans a spec's campaign through the shard plan.

Example spec::

    {
      "name": "nightly-eu-check",
      "vantages": ["ec2-frankfurt"],
      "resolvers": {"region": "EU"},
      "transport": "doh",
      "domains": ["google.com", "wikipedia.com"],
      "rounds": 4,
      "interval_hours": 6,
      "stagger_minutes": 5,
      "seed": 7
    }
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, List, Mapping, Optional, Tuple, Union

from repro.catalog.resolvers import CATALOG
from repro.core.probes import ProbeConfig
from repro.core.runner import CampaignConfig
from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.errors import CampaignConfigError
from repro.files import check_spec, read_document, spec_from_table

if TYPE_CHECKING:
    from repro.parallel import ParallelRun


@dataclass(frozen=True)
class ResolverFilter:
    """A ``resolvers`` table: the catalog entries matching every key given."""

    region: Optional[str] = None
    mainstream: Optional[bool] = None
    anycast: Optional[bool] = None

    def __post_init__(self) -> None:
        check_spec(self, CampaignConfigError, "spec 'resolvers'")


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign spec file: every key, its default and its shape.

    A key left out takes the default below; an unknown key, a missing
    ``name`` or a value of the wrong type raises
    :class:`CampaignConfigError`, so configuration typos fail loudly rather
    than silently measuring the wrong thing.
    """

    name: str
    vantages: Tuple[str, ...] = ("ec2-ohio",)
    #: ``"all"``, a list of hostnames or a :class:`ResolverFilter` table.
    resolvers: Union[str, Tuple[str, ...], ResolverFilter] = "all"
    transport: str = "doh"
    domains: Tuple[str, ...] = ("google.com", "amazon.com", "wikipedia.com")
    rounds: int = 3
    interval_hours: float = 8.0
    stagger_minutes: float = 5.0
    seed: int = 0
    ping: bool = True
    method: str = "POST"
    timeout_ms: float = 5000.0
    reuse_connections: bool = False

    def __post_init__(self) -> None:
        check_spec(self, CampaignConfigError, "spec")
        if not self.name.strip():
            raise CampaignConfigError("spec needs a non-empty 'name'")
        if self.rounds <= 0:
            raise CampaignConfigError("rounds must be positive")
        if self.interval_hours <= 0:
            # Zero would fire every round at one instant: a burst, not a schedule.
            raise CampaignConfigError("interval_hours must be positive")
        if self.method not in ("POST", "GET"):
            raise CampaignConfigError(f"unknown method {self.method!r}")
        select_targets(self.resolvers)


def load_spec(path: Union[str, Path]) -> CampaignSpec:
    """Read and check a spec file (JSON, or TOML by its suffix)."""
    data = read_document(path, CampaignConfigError, "campaign spec")
    what = f"campaign spec {path}"
    return spec_from_table(CampaignSpec, data, CampaignConfigError, what)


def select_targets(selector: Any) -> List[str]:
    """Resolve a ``resolvers`` selector against the catalog.

    Accepts ``"all"``, a list of hostnames, or a :class:`ResolverFilter` or
    the table one is read from: any of ``region`` (continent code),
    ``mainstream`` and ``anycast`` (true or false).  Returns the selected
    hostnames in catalog order.
    """
    if isinstance(selector, Mapping):
        selector = spec_from_table(
            ResolverFilter, dict(selector), CampaignConfigError, "spec 'resolvers'"
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


def run_spec(spec: CampaignSpec) -> "ParallelRun":
    """Run a spec's campaign under the identity plan (one shard, in this
    process) on a fresh world built from the spec's seed."""
    from repro.experiments.campaigns import run_campaign_parallel

    interval_ms = spec.interval_hours * MS_PER_HOUR
    config = CampaignConfig(
        name=spec.name,
        domains=list(spec.domains),
        schedule=PeriodicSchedule(
            rounds=spec.rounds,
            interval_ms=interval_ms,
            stagger_ms=min(spec.stagger_minutes * 60_000.0, interval_ms),
        ),
        transport=spec.transport,
        probe_config=ProbeConfig(
            method=spec.method,
            timeout_ms=spec.timeout_ms,
            reuse_connections=spec.reuse_connections,
        ),
        ping=spec.ping,
        seed=spec.seed,
    )
    return run_campaign_parallel(
        config,
        list(spec.vantages),
        select_targets(spec.resolvers),
        world_seed=spec.seed,
        shards=1,
    )
