"""Measurement scheduling on the virtual clock.

The paper ran its home-network tests "every few hours" for three months
and its EC2 tests three times a day.  :class:`PeriodicSchedule` expresses
such cadences as explicit round start times on the virtual clock, with an
optional per-round stagger so that probes toward different resolvers do
not all fire at the same instant (as the real platform's task scheduler
naturally spreads them).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator, List

from repro.errors import CampaignConfigError
from repro.files import check_spec

MS_PER_HOUR = 3600.0 * 1000.0
MS_PER_DAY = 24.0 * MS_PER_HOUR


@dataclass(frozen=True)
class PeriodicSchedule:
    """Evenly spaced measurement rounds.

    Attributes
    ----------
    rounds:
        Number of measurement rounds.
    interval_ms:
        Gap between round starts.
    start_ms:
        Virtual time of the first round.
    stagger_ms:
        Width of the uniform window over which individual probes inside a
        round are spread (0 = all at the round start).

    A schedule has no round index of its own: a shard's slice of a larger
    campaign carries its first round's campaign-wide index beside it, to
    :class:`~repro.core.runner.Campaign` (``first_round_index``).
    """

    rounds: int
    interval_ms: float
    start_ms: float = 0.0
    stagger_ms: float = 0.0

    def __post_init__(self) -> None:
        check_spec(self, CampaignConfigError, "schedule")
        if self.rounds <= 0:
            raise CampaignConfigError("schedule needs at least one round")
        if self.interval_ms < 0 or self.stagger_ms < 0:
            raise CampaignConfigError("negative schedule interval/stagger")
        if self.stagger_ms > self.interval_ms and self.rounds > 1:
            raise CampaignConfigError("stagger larger than the round interval")

    def round_starts(self) -> List[float]:
        """Absolute start time of every round."""
        return [self.start_ms + i * self.interval_ms for i in range(self.rounds)]

    def slice_rounds(self, start: int, stop: int) -> "PeriodicSchedule":
        """The sub-schedule covering rounds ``[start, stop)``.

        The slice preserves absolute round start times: round ``start``
        fires at the same virtual instant as it would inside the full
        schedule.  Run with ``first_round_index=start``, its rounds also
        keep their indices and therefore their derived RNG streams, which
        is what makes a round-range shard byte-equivalent to the same
        rounds of a serial campaign.
        """
        if not 0 <= start < stop <= self.rounds:
            raise CampaignConfigError(
                f"round slice [{start}, {stop}) outside [0, {self.rounds})"
            )
        return replace(
            self,
            rounds=stop - start,
            start_ms=self.start_ms + start * self.interval_ms,
        )

    def probe_offset(self, rng: random.Random) -> float:
        """Sample one probe's offset within its round."""
        if self.stagger_ms <= 0:
            return 0.0
        return rng.uniform(0.0, self.stagger_ms)

    def __iter__(self) -> Iterator[float]:
        return iter(self.round_starts())

    @property
    def total_span_ms(self) -> float:
        """Time from the first round start to the end of the last round."""
        return (self.rounds - 1) * self.interval_ms + self.stagger_ms

    @property
    def horizon_ms(self) -> float:
        """How long a fault plan for this schedule must last, from virtual
        time 0: to the start, over the span, plus one interval while the
        last round's probes and retries are in flight."""
        return self.start_ms + self.total_span_ms + self.interval_ms
