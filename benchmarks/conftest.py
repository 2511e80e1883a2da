"""Shared fixtures for the benchmark harness.

The expensive part — running the full home + EC2 study over the
91-resolver world — happens once per session here; the per-table and
per-figure benchmarks then time the analysis that produces each artifact
and print paper-vs-measured rows.
"""

from __future__ import annotations

import pytest

from repro.core.results import ResultStore
from repro.experiments.campaigns import study_legs
from repro.experiments.world import World, build_world
from repro.parallel import run_campaigns

#: Rounds used for the shared study.  Enough for stable medians (each
#: (vantage, resolver) pair gets rounds x 3 domain samples) while keeping
#: the one-off simulation around half a minute.
HOME_ROUNDS = 10
EC2_ROUNDS = 10


@pytest.fixture(scope="session")
def study_world() -> World:
    return build_world(seed=0)


@pytest.fixture(scope="session")
def study_store() -> ResultStore:
    # The identity plan at world seed 0, as `repro-dns report` runs it.
    return run_campaigns(
        study_legs(home_rounds=HOME_ROUNDS, ec2_rounds=EC2_ROUNDS), shards=1
    ).store


def print_artifact(title: str, body: str) -> None:
    """Emit a rendered artifact into the pytest output."""
    print(f"\n================ {title} ================")
    print(body)
