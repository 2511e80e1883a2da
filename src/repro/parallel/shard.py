"""Campaign sharding: partition (vantage × resolver × round) space.

A :class:`Shard` names a rectangular slice of a campaign — a subset of
vantages, a subset of targets, and a contiguous round range — plus the
seed of its world's network stream.  The three strategies cut along one
axis each:

* ``vantage``  — one shard per vantage point (the paper's natural unit:
  each EC2 instance / home device ran independently);
* ``resolver`` — targets split into near-equal cohorts;
* ``round``    — the round range split into near-equal spans.

Every strategy covers each (vantage, resolver, round) triple exactly
once; :func:`partition` is pure and deterministic, so the serial and the
pooled executor agree on the plan without communicating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.seeding import derive_seed
from repro.errors import CampaignConfigError

#: Supported values of ``shard_by``.
SHARD_STRATEGIES = ("vantage", "resolver", "round")


@dataclass(frozen=True)
class Shard:
    """One independent slice of a campaign.

    ``network_seed`` reseeds the shard world's packet-level RNG (jitter
    and loss draws).  For multi-shard plans it is derived from the
    campaign seed and the shard key so shards sample de-correlated
    network noise; a single-shard plan leaves it ``None`` — the world's
    own stream is kept — making ``partition(..., shards=1)`` the
    identity: running that shard is exactly the classic serial campaign.
    """

    index: int
    key: str
    vantage_names: Tuple[str, ...]
    target_hostnames: Tuple[str, ...]
    round_start: int
    round_stop: int
    network_seed: Optional[int]

    def __post_init__(self) -> None:
        if not self.vantage_names or not self.target_hostnames:
            raise CampaignConfigError(f"shard {self.key!r} is empty")
        if not 0 <= self.round_start < self.round_stop:
            raise CampaignConfigError(
                f"shard {self.key!r}: bad round range "
                f"[{self.round_start}, {self.round_stop})"
            )

    @property
    def rounds(self) -> int:
        return self.round_stop - self.round_start

    def triples(self) -> List[Tuple[str, str, int]]:
        """Every (vantage, resolver, round) this shard covers."""
        return [
            (vantage, target, round_index)
            for vantage in self.vantage_names
            for target in self.target_hostnames
            for round_index in range(self.round_start, self.round_stop)
        ]

    def describe(self) -> str:
        return (
            f"shard[{self.index}] {self.key}: "
            f"{len(self.vantage_names)}v x {len(self.target_hostnames)}t x "
            f"{self.rounds}r"
        )


def refuse_repeats(names: Sequence[str], what: str) -> None:
    """Refuse a list that names one vantage or resolver twice: it would be
    measured twice, or its repeat dropped without a word."""
    seen: Set[str] = set()
    for name in names:
        if name in seen:
            raise CampaignConfigError(f"{what} {name!r} is named twice")
        seen.add(name)


def _chunk(items: Sequence[str], pieces: int) -> List[Sequence[str]]:
    """Split ``items`` into ``pieces`` contiguous near-equal chunks."""
    chunks: List[Sequence[str]] = []
    base, extra = divmod(len(items), pieces)
    cursor = 0
    for piece in range(pieces):
        size = base + (1 if piece < extra else 0)
        chunks.append(items[cursor : cursor + size])
        cursor += size
    return chunks


def partition(
    vantage_names: Sequence[str],
    target_hostnames: Sequence[str],
    rounds: int,
    shard_by: str = "vantage",
    shards: Optional[int] = None,
    seed: int = 0,
) -> List[Shard]:
    """Cut a campaign into disjoint, covering shards.

    ``shards`` bounds the shard count for the ``resolver`` and ``round``
    strategies (default: 8, clamped to the axis size); the ``vantage``
    strategy always yields one shard per vantage.  Passing ``shards=1``
    under any strategy returns the single identity shard whose execution
    is the classic serial campaign.

    In a multi-shard plan each shard's ``network_seed`` is derived from
    the campaign ``seed`` and the shard key with a stable hash, so seeds
    are reproducible across processes and pairwise distinct with
    overwhelming probability.
    """
    if shard_by not in SHARD_STRATEGIES:
        raise CampaignConfigError(
            f"unknown shard strategy {shard_by!r} (want one of {SHARD_STRATEGIES})"
        )
    if not vantage_names:
        raise CampaignConfigError("cannot shard a campaign with no vantages")
    if not target_hostnames:
        raise CampaignConfigError("cannot shard a campaign with no targets")
    if rounds <= 0:
        raise CampaignConfigError("cannot shard a campaign with no rounds")
    if shards is not None and shards < 1:
        raise CampaignConfigError(f"shard count {shards!r} must be >= 1")
    refuse_repeats(vantage_names, "vantage")
    refuse_repeats(target_hostnames, "resolver")

    vantages = tuple(vantage_names)
    targets = tuple(target_hostnames)

    pieces: List[Tuple[str, Tuple[str, ...], Tuple[str, ...], int, int]] = []
    if shards == 1:
        pieces.append(("all", vantages, targets, 0, rounds))
    elif shard_by == "vantage":
        for vantage in vantages:
            pieces.append((f"vantage={vantage}", (vantage,), targets, 0, rounds))
    elif shard_by == "resolver":
        count = min(shards if shards is not None else 8, len(targets))
        for cohort_index, cohort in enumerate(_chunk(targets, count)):
            pieces.append(
                (f"resolvers[{cohort_index}/{count}]", vantages, tuple(cohort), 0, rounds)
            )
    else:  # round
        count = min(shards if shards is not None else 8, rounds)
        cursor = 0
        base, extra = divmod(rounds, count)
        for span_index in range(count):
            size = base + (1 if span_index < extra else 0)
            pieces.append(
                (
                    f"rounds[{cursor}:{cursor + size}]",
                    vantages,
                    targets,
                    cursor,
                    cursor + size,
                )
            )
            cursor += size

    out: List[Shard] = []
    for index, (key, shard_vantages, shard_targets, lo, hi) in enumerate(pieces):
        out.append(
            Shard(
                index=index,
                key=key,
                vantage_names=shard_vantages,
                target_hostnames=shard_targets,
                round_start=lo,
                round_stop=hi,
                # The identity plan keeps the world's own network stream
                # so a 1-shard run reproduces Campaign.run() exactly.
                network_seed=(
                    None if len(pieces) == 1 else derive_seed(seed, "shard-net", key)
                ),
            )
        )
    return out
