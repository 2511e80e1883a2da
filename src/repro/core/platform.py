"""Config-driven measurement service (the Netrics integration shape).

The paper's tool ran inside Netrics: operators describe measurement tests
declaratively and the platform schedules them and writes JSON results.
This module gives the library the same operational surface: a JSON/dict
test specification that selects vantage points, resolvers (by name, by
region, by mainstream tier, or all), transport, domains and schedule —
plus a loader that turns a spec into a runnable campaign.

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

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.core.probes import ProbeConfig
from repro.core.results import ResultStore
from repro.core.runner import Campaign, CampaignConfig, ResolverTarget
from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.errors import CampaignConfigError
from repro.files import read_document

_ALLOWED_KEYS = {
    "name", "vantages", "resolvers", "transport", "domains", "rounds",
    "interval_hours", "stagger_minutes", "seed", "ping", "method",
    "timeout_ms", "reuse_connections",
}


def parse_spec(spec: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate a raw spec mapping; returns a normalized dict.

    Raises :class:`CampaignConfigError` on unknown keys or bad values so
    configuration typos fail loudly rather than silently measuring the
    wrong thing.
    """
    unknown = set(spec) - _ALLOWED_KEYS
    if unknown:
        raise CampaignConfigError(f"unknown spec keys: {sorted(unknown)}")
    if "name" not in spec or not str(spec["name"]).strip():
        raise CampaignConfigError("spec needs a non-empty 'name'")
    normalized: Dict[str, Any] = {
        "name": str(spec["name"]),
        "vantages": list(spec.get("vantages", ["ec2-ohio"])),
        "resolvers": spec.get("resolvers", "all"),
        "transport": str(spec.get("transport", "doh")),
        "domains": list(spec.get("domains", ["google.com", "amazon.com", "wikipedia.com"])),
        "rounds": int(spec.get("rounds", 3)),
        "interval_hours": float(spec.get("interval_hours", 8.0)),
        "stagger_minutes": float(spec.get("stagger_minutes", 5.0)),
        "seed": int(spec.get("seed", 0)),
        "ping": bool(spec.get("ping", True)),
        "method": str(spec.get("method", "POST")),
        "timeout_ms": float(spec.get("timeout_ms", 5000.0)),
        "reuse_connections": bool(spec.get("reuse_connections", False)),
    }
    if normalized["rounds"] <= 0:
        raise CampaignConfigError("rounds must be positive")
    if not normalized["vantages"]:
        raise CampaignConfigError("spec needs at least one vantage")
    if normalized["method"] not in ("POST", "GET"):
        raise CampaignConfigError(f"unknown method {normalized['method']!r}")
    return normalized


def load_spec(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a spec file (JSON, or TOML by its suffix)."""
    return parse_spec(read_document(path, CampaignConfigError, "campaign spec"))


def select_targets(world, selector: Any) -> List[ResolverTarget]:
    """Resolve the spec's ``resolvers`` selector against a world.

    Accepts ``"all"``, an explicit hostname list, or a mapping with any of
    ``region`` (continent code), ``mainstream`` (bool), ``anycast`` (bool).
    """
    if selector == "all" or selector is None:
        return world.targets()
    if isinstance(selector, (list, tuple)):
        return world.targets(list(selector))
    if isinstance(selector, Mapping):
        entries = world.catalog
        if "region" in selector:
            entries = [e for e in entries if e.region == selector["region"]]
        if "mainstream" in selector:
            entries = [e for e in entries if e.mainstream == bool(selector["mainstream"])]
        if "anycast" in selector:
            entries = [e for e in entries if e.anycast == bool(selector["anycast"])]
        if not entries:
            raise CampaignConfigError(f"resolver selector matched nothing: {selector}")
        return world.targets([e.hostname for e in entries])
    raise CampaignConfigError(f"bad resolver selector: {selector!r}")


def build_campaign(world, spec: Mapping[str, Any], store: Optional[ResultStore] = None) -> Campaign:
    """Turn a validated spec into a runnable :class:`Campaign`."""
    normalized = parse_spec(spec)
    schedule = PeriodicSchedule(
        rounds=normalized["rounds"],
        interval_ms=normalized["interval_hours"] * MS_PER_HOUR,
        start_ms=world.network.loop.now,
        stagger_ms=min(
            normalized["stagger_minutes"] * 60_000.0,
            normalized["interval_hours"] * MS_PER_HOUR,
        ),
    )
    config = CampaignConfig(
        name=normalized["name"],
        domains=normalized["domains"],
        schedule=schedule,
        transport=normalized["transport"],
        probe_config=ProbeConfig(
            method=normalized["method"],
            timeout_ms=normalized["timeout_ms"],
            reuse_connections=normalized["reuse_connections"],
        ),
        ping=normalized["ping"],
        seed=normalized["seed"],
    )
    vantages = [world.vantage(name) for name in normalized["vantages"]]
    targets = select_targets(world, normalized["resolvers"])
    return Campaign(
        network=world.network,
        vantages=vantages,
        targets=targets,
        config=config,
        store=store,
    )


def run_spec(world, spec: Mapping[str, Any]) -> ResultStore:
    """Build and run a campaign from a spec; returns its result store."""
    return build_campaign(world, spec).run()
