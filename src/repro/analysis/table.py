"""One fold over a run's records: the per-group table every claim reads.

Every number the paper reports is a count or a median over per-(vantage,
resolver) groups of the same records.  :class:`RecordTable` reads a record
source once and keeps, per group key ``(campaign, vantage, resolver,
transport, kind, session_state)``, only what those numbers need: counts,
error tallies, the rounds with a failure, and ``array('d')`` columns of
the successful records' durations and phase timings.  Medians stay exact:
a median sorts a column.  Every public function in :mod:`repro.analysis`
takes a table or any record source, which it folds once on entry with
:meth:`RecordTable.of`.

Dict order is output (a tie in a sort or a ``max`` goes to the first
entry), so the table keeps what one pass over the records in stream order
would have seen first: groups in first-record order, each group's first
success, and each error class's first failure.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from math import isfinite
from typing import (
    Any, Collection, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple, Union,
)

from repro.core.results import MeasurementRecord
from repro.errors import AnalysisError

#: A criterion on one key field: a value, several values, or None (any).
Criterion = Union[None, str, Collection[str]]

#: What :meth:`RecordTable.of` takes: a table, a store, a warehouse, a run
#: or any iterable of records.
Source = Any


class GroupKey(NamedTuple):
    campaign: str
    vantage: str
    resolver: str
    transport: str
    kind: str
    session_state: Optional[str]


def _column() -> array:
    return array("d")


@dataclass
class Group:
    """The columns of one group of records (or of several, merged)."""

    count: int = 0
    successes: int = 0
    attempts_total: int = 0
    #: Stream position of the first successful record; None without one.
    first_success: Optional[int] = None
    #: Failures per error class (``"unknown"`` when unset), in the order
    #: each class first failed, and the stream position of that failure.
    errors: Counter = field(default_factory=Counter)
    error_first: Dict[str, int] = field(default_factory=dict)
    #: Failures per failed phase (``"(unknown)"`` when unset).
    failed_phases: Counter = field(default_factory=Counter)
    failed_rounds: Set[int] = field(default_factory=set)
    #: Successful records with a duration: that duration, and each phase
    #: timing they carry.
    durations: array = field(default_factory=_column)
    connect_ms: array = field(default_factory=_column)
    tls_ms: array = field(default_factory=_column)
    query_ms: array = field(default_factory=_column)

    @property
    def failures(self) -> int:
        return self.count - self.successes


def merge(groups: Iterable[Group]) -> Group:
    """One group holding the records of all of ``groups``.

    Columns concatenate in the order given; counters add up, with error
    classes in first-failure order across all the groups.  A single group
    is returned as it is, not copied: treat the result as read-only.
    """
    groups = list(groups)
    if len(groups) == 1:
        return groups[0]
    out = Group()
    errors: Counter = Counter()
    for group in groups:
        out.count += group.count
        out.successes += group.successes
        out.attempts_total += group.attempts_total
        if group.first_success is not None and (
            out.first_success is None or group.first_success < out.first_success
        ):
            out.first_success = group.first_success
        errors.update(group.errors)
        for error, first in group.error_first.items():
            out.error_first[error] = min(first, out.error_first.get(error, first))
        out.failed_phases.update(group.failed_phases)
        out.failed_rounds |= group.failed_rounds
        for name in ("durations", "connect_ms", "tls_ms", "query_ms"):
            getattr(out, name).extend(getattr(group, name))
    out.error_first = dict(sorted(out.error_first.items(), key=lambda item: item[1]))
    out.errors = Counter({error: errors[error] for error in out.error_first})
    return out


class RecordTable:
    """Per-group columns of a record stream, built in one pass."""

    def __init__(self, records: Iterable[MeasurementRecord]) -> None:
        #: Group key -> columns, in the order each group's first record came.
        self.groups: Dict[GroupKey, Group] = {}
        #: Campaign -> earliest ``started_at_ms`` over all of its records,
        #: in the order each campaign's first record came.
        self.campaign_starts: Dict[str, float] = {}
        self._fold(records)

    @classmethod
    def of(cls, source: Source) -> "RecordTable":
        """``source`` itself if it is a table, else the fold of its records.

        A :class:`~repro.parallel.ParallelRun` is read from its warehouse
        when it streamed to one, else from its store.
        """
        if isinstance(source, cls):
            return source
        for attribute in ("warehouse", "store"):
            inner = getattr(source, attribute, None)
            if inner is not None:
                return cls(inner)
        return cls(source)

    def _fold(self, records: Iterable[MeasurementRecord]) -> None:
        groups = self.groups
        starts = self.campaign_starts
        for position, record in enumerate(records):
            campaign = record.campaign
            start = starts.get(campaign)
            if start is None or record.started_at_ms < start:
                starts[campaign] = record.started_at_ms
            key = (
                campaign,
                record.vantage,
                record.resolver,
                record.transport,
                record.kind,
                record.session_state,
            )
            group = groups.get(key)
            if group is None:
                group = groups[GroupKey(*key)] = Group()
            group.count += 1
            group.attempts_total += record.attempts
            if not record.success:
                error = record.error_class or "unknown"
                group.errors[error] += 1
                group.error_first.setdefault(error, position)
                group.failed_phases[record.failed_phase or "(unknown)"] += 1
                group.failed_rounds.add(record.round_index)
                continue
            group.successes += 1
            if group.first_success is None:
                group.first_success = position
            timings = (record.duration_ms, record.connect_ms, record.tls_ms, record.query_ms)
            if not all(value is None or isfinite(value) for value in timings):
                # A NaN would make a median depend on the order of its samples.
                raise AnalysisError(
                    f"non-finite timing on a successful record (campaign "
                    f"{campaign!r}, vantage {record.vantage!r}, resolver "
                    f"{record.resolver!r}): duration/connect/tls/query ms = {timings}"
                )
            if timings[0] is not None:
                columns = (group.durations, group.connect_ms, group.tls_ms, group.query_ms)
                for column, value in zip(columns, timings):
                    if value is not None:
                        column.append(value)

    def select(
        self,
        kind: str,
        campaign: Optional[str] = None,
        vantage: Criterion = None,
        resolver: Optional[str] = None,
    ) -> Iterator[Tuple[GroupKey, Group]]:
        """The groups of ``kind`` matching every criterion, in first-record order.

        ``vantage`` may name several vantages, whose groups are pooled.
        """
        vantages = (vantage,) if isinstance(vantage, str) else vantage
        for key, group in self.groups.items():
            if (
                key.kind == kind
                and (campaign is None or key.campaign == campaign)
                and (vantages is None or key.vantage in vantages)
                and (resolver is None or key.resolver == resolver)
            ):
                yield key, group

    def cell(self, kind: str, **criteria: Criterion) -> Group:
        """All the groups :meth:`select` matches, merged into one."""
        return merge(group for _key, group in self.select(kind, **criteria))

    def by_resolver(self, kind: str, **criteria: Criterion) -> Dict[str, Group]:
        """The matching groups merged per resolver.

        Resolvers come in the order of their first matching record, as a
        ``setdefault`` loop over the records would have inserted them.
        """
        parts: Dict[str, List[Group]] = {}
        for key, group in self.select(kind, **criteria):
            parts.setdefault(key.resolver, []).append(group)
        return {resolver: merge(groups) for resolver, groups in parts.items()}
