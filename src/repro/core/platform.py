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

import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Union

from repro.catalog.resolvers import CATALOG
from repro.core.probes import ProbeConfig
from repro.core.runner import CampaignConfig
from repro.core.scheduler import MS_PER_HOUR, PeriodicSchedule
from repro.errors import CampaignConfigError
from repro.files import read_document

if TYPE_CHECKING:
    from repro.parallel import ParallelRun

_ALLOWED_KEYS = {
    "name", "vantages", "resolvers", "transport", "domains", "rounds",
    "interval_hours", "stagger_minutes", "seed", "ping", "method",
    "timeout_ms", "reuse_connections",
}


#: What a spec value of each shape must be; a value of another type is
#: refused, never coerced (``"false"`` is not false, ``2.7`` rounds is not 2).
_SHAPES = {
    "names": (
        "a non-empty list of names",
        lambda v: isinstance(v, (list, tuple))
        and bool(v)
        and all(isinstance(item, str) and item for item in v),
    ),
    "integer": (
        "an integer",
        lambda v: isinstance(v, int) and not isinstance(v, bool),
    ),
    "number": (
        "a finite number",
        lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v),
    ),
    "flag": ("true or false", lambda v: isinstance(v, bool)),
}


def _checked(key: str, value: Any, shape: str) -> Any:
    expected, valid = _SHAPES[shape]
    if not valid(value):
        raise CampaignConfigError(f"spec {key!r} must be {expected}, got {value!r}")
    return list(value) if shape == "names" else value


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
        "resolvers": spec.get("resolvers", "all"),
        "transport": str(spec.get("transport", "doh")),
        "method": str(spec.get("method", "POST")),
    }
    for key, default, shape in (
        ("vantages", ["ec2-ohio"], "names"),
        ("domains", ["google.com", "amazon.com", "wikipedia.com"], "names"),
        ("rounds", 3, "integer"),
        ("interval_hours", 8.0, "number"),
        ("stagger_minutes", 5.0, "number"),
        ("seed", 0, "integer"),
        ("ping", True, "flag"),
        ("timeout_ms", 5000.0, "number"),
        ("reuse_connections", False, "flag"),
    ):
        normalized[key] = _checked(key, spec.get(key, default), shape)
    if normalized["rounds"] <= 0:
        raise CampaignConfigError("rounds must be positive")
    if normalized["interval_hours"] <= 0:
        # Zero would fire every round at one instant: a burst, not a schedule.
        raise CampaignConfigError("interval_hours must be positive")
    if normalized["method"] not in ("POST", "GET"):
        raise CampaignConfigError(f"unknown method {normalized['method']!r}")
    return normalized


def load_spec(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and validate a spec file (JSON, or TOML by its suffix)."""
    return parse_spec(read_document(path, CampaignConfigError, "campaign spec"))


def select_targets(selector: Any) -> List[str]:
    """Resolve the spec's ``resolvers`` selector against the catalog.

    Accepts ``"all"``, an explicit hostname list, or a mapping with any of
    ``region`` (continent code), ``mainstream`` (bool), ``anycast`` (bool).
    Returns the selected hostnames in catalog order.
    """
    entries = CATALOG
    if selector == "all" or selector is None:
        pass
    elif isinstance(selector, (list, tuple)):
        wanted = set(_checked("resolvers", selector, "names"))
        entries = [e for e in entries if e.hostname in wanted]
        missing = wanted.difference(e.hostname for e in entries)
        if missing:
            raise CampaignConfigError(
                f"unknown resolvers: {', '.join(sorted(missing))}"
            )
    elif isinstance(selector, Mapping):
        if "region" in selector:
            entries = [e for e in entries if e.region == selector["region"]]
        if "mainstream" in selector:
            entries = [e for e in entries if e.mainstream == bool(selector["mainstream"])]
        if "anycast" in selector:
            entries = [e for e in entries if e.anycast == bool(selector["anycast"])]
    else:
        raise CampaignConfigError(f"bad resolver selector: {selector!r}")
    if not entries:
        raise CampaignConfigError(f"resolver selector matched nothing: {selector}")
    return [e.hostname for e in entries]


def run_spec(spec: Mapping[str, Any]) -> "ParallelRun":
    """Run a spec's campaign under the identity plan (one shard, in this
    process) on a fresh world built from the spec's seed."""
    from repro.experiments.campaigns import run_campaign_parallel

    normalized = parse_spec(spec)
    interval_ms = normalized["interval_hours"] * MS_PER_HOUR
    config = CampaignConfig(
        name=normalized["name"],
        domains=normalized["domains"],
        schedule=PeriodicSchedule(
            rounds=normalized["rounds"],
            interval_ms=interval_ms,
            stagger_ms=min(normalized["stagger_minutes"] * 60_000.0, interval_ms),
        ),
        transport=normalized["transport"],
        probe_config=ProbeConfig(
            method=normalized["method"],
            timeout_ms=normalized["timeout_ms"],
            reuse_connections=normalized["reuse_connections"],
        ),
        ping=normalized["ping"],
        seed=normalized["seed"],
    )
    return run_campaign_parallel(
        config,
        normalized["vantages"],
        select_targets(normalized["resolvers"]),
        world_seed=normalized["seed"],
        shards=1,
    )
