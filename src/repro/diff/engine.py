"""The consensus differencing engine (respdiff's msgdiff + diffsum).

Streams measurement records — from an in-memory
:class:`~repro.core.results.ResultStore`, a warehouse, or a JSONL
iterator — groups them into same-query *cells* (campaign, round, vantage,
domain), elects a consensus answer per cell, and emits one classified
:class:`~repro.diff.records.DiffRecord` per (cell, resolver).

The engine is a pure function of the record *multiset*: cells and their
members are sorted before any comparison, ties in the consensus election
break on the canonical serialization of the candidate form, and the
output records carry a total order.  Hence a sharded campaign and a
serial one — or a warehouse-backed source and an in-memory one — produce
byte-identical reports.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.results import MeasurementRecord
from repro.diff.records import (
    STATUS_AGREE,
    STATUS_DISAGREE,
    STATUS_UNANSWERED,
    DiffRecord,
    diff_records_to_jsonl,
)
from repro.dnswire.canonical import (
    CLASS_AGREE,
    CLASS_UNANSWERED,
    FIELD_ORDER,
    TAXONOMY,
    CanonicalForm,
    canonical_form_from_wire,
    classify,
    diff_forms,
)
from repro.errors import DiffInputError


def _form_key(form: CanonicalForm) -> str:
    """A stable serialization used to break consensus-election ties."""
    return json.dumps(form.to_dict(), sort_keys=True, separators=(",", ":"))


@dataclass
class _CellMember:
    resolver: str
    transport: str
    form: Optional[CanonicalForm]
    error_class: Optional[str]


def elect_consensus(forms: List[CanonicalForm]) -> Optional[CanonicalForm]:
    """The most common canonical form; ties break on serialization order.

    Returns ``None`` when no comparable response exists at all.
    """
    if not forms:
        return None
    counts = Counter(forms)
    return min(counts.items(), key=lambda item: (-item[1], _form_key(item[0])))[0]


@dataclass
class ResolverDiffRow:
    """Per-resolver aggregate for the disagreement-rate table."""

    resolver: str
    cells: int
    agree: int
    disagree: int
    unanswered: int

    @property
    def comparable(self) -> int:
        return self.agree + self.disagree

    @property
    def disagreement_rate(self) -> float:
        return self.disagree / self.comparable if self.comparable else 0.0


@dataclass
class DiffReport:
    """All diff records of one campaign plus the analysis views on them."""

    records: List[DiffRecord]

    def __len__(self) -> int:
        return len(self.records)

    # -- aggregates ---------------------------------------------------------

    def status_counts(self) -> Dict[str, int]:
        counts = {STATUS_AGREE: 0, STATUS_DISAGREE: 0, STATUS_UNANSWERED: 0}
        for record in self.records:
            counts[record.status] += 1
        return counts

    def cell_count(self) -> int:
        return len(
            {
                (r.campaign, r.round_index, r.vantage, r.domain)
                for r in self.records
            }
        )

    def disagreements(self) -> List[DiffRecord]:
        return [r for r in self.records if r.status == STATUS_DISAGREE]

    def per_resolver_rows(self) -> List[ResolverDiffRow]:
        """Disagreement-rate rows, worst resolver first (ties by name)."""
        rows: Dict[str, ResolverDiffRow] = {}
        for record in self.records:
            row = rows.setdefault(
                record.resolver,
                ResolverDiffRow(record.resolver, 0, 0, 0, 0),
            )
            row.cells += 1
            if record.status == STATUS_AGREE:
                row.agree += 1
            elif record.status == STATUS_DISAGREE:
                row.disagree += 1
            else:
                row.unanswered += 1
        return sorted(
            rows.values(),
            key=lambda row: (-row.disagreement_rate, row.resolver),
        )

    def field_mismatch_shares(self) -> List[Tuple[str, int, float]]:
        """(field, mismatch count, share of all field mismatches) rows."""
        counts = Counter()
        for record in self.disagreements():
            counts.update(record.mismatch_fields)
        total = sum(counts.values())
        return [
            (field, counts.get(field, 0), counts.get(field, 0) / total if total else 0.0)
            for field in FIELD_ORDER
        ]

    def classification_counts(self) -> List[Tuple[str, int, int, int, int]]:
        """(class, count, reproducible, transient, unverified) rows."""
        rows = []
        for label in TAXONOMY:
            members = [r for r in self.records if r.classification == label]
            reproducible = sum(1 for r in members if r.reproducible is True)
            transient = sum(1 for r in members if r.reproducible is False)
            unverified = sum(1 for r in members if r.reproducible is None)
            rows.append((label, len(members), reproducible, transient, unverified))
        return rows

    # -- serialization ------------------------------------------------------

    def to_jsonl(self) -> str:
        return diff_records_to_jsonl(self.records)

    def render(self) -> str:
        from repro.analysis.diffsum import render_diff_summary

        return render_diff_summary(self)


def build_diff_report(records: Iterable[MeasurementRecord]) -> DiffReport:
    """Diff every same-query cell in ``records`` against its consensus.

    Only final ``dns_query`` records participate (pings and intermediate
    retry attempts are skipped); a cell never spans two campaigns, as the
    campaign is part of its key.  Records with a captured response
    contribute their canonical form; records without one (timeouts, dead
    resolvers) enter their cell as *unanswered* — counted separately,
    never as a content disagreement.

    Raises :class:`~repro.errors.DiffInputError` when the stream contains
    answered queries but no captured wire at all — the campaign ran
    without ``capture_responses`` and there is nothing to diff.
    """
    cells: Dict[Tuple[str, int, str, str], List[_CellMember]] = {}
    captured = 0
    answered_without_wire = 0
    for record in records:
        if record.kind != "dns_query":
            continue
        form: Optional[CanonicalForm] = None
        if record.response_wire:
            form = canonical_form_from_wire(bytes.fromhex(record.response_wire))
            captured += 1
        elif record.rcode is not None:
            answered_without_wire += 1
        key = (
            record.campaign,
            record.round_index,
            record.vantage,
            record.domain or "",
        )
        cells.setdefault(key, []).append(
            _CellMember(
                resolver=record.resolver,
                transport=record.transport,
                form=form,
                error_class=record.error_class,
            )
        )
    if captured == 0 and answered_without_wire > 0:
        raise DiffInputError(
            "no record carries a captured response wire; re-run the campaign "
            "with capture_responses=True (the `repro diff` subcommand does)"
        )

    out: List[DiffRecord] = []
    for key in sorted(cells):
        campaign_name, round_index, vantage, domain = key
        members = sorted(cells[key], key=lambda member: member.resolver)
        forms = [m.form for m in members if m.form is not None]
        consensus = elect_consensus(forms)
        consensus_size = sum(1 for form in forms if form == consensus)
        expected = consensus.render() if consensus is not None else None
        for member in members:
            if member.form is None or consensus is None:
                status = STATUS_UNANSWERED
                classification = CLASS_UNANSWERED
                mismatch_fields: List[str] = []
                observed = member.form.render() if member.form else None
            else:
                mismatch_fields = diff_forms(member.form, consensus)
                classification = classify(mismatch_fields, member.form, consensus)
                status = STATUS_AGREE if classification == CLASS_AGREE else STATUS_DISAGREE
                observed = member.form.render()
            out.append(
                DiffRecord(
                    campaign=campaign_name,
                    vantage=vantage,
                    resolver=member.resolver,
                    domain=domain,
                    round_index=round_index,
                    transport=member.transport,
                    status=status,
                    classification=classification,
                    mismatch_fields=mismatch_fields,
                    observed=observed,
                    expected=expected,
                    error_class=member.error_class,
                    consensus_size=consensus_size,
                    group_size=len(members),
                )
            )
    out.sort(key=DiffRecord.canonical_key)
    return DiffReport(records=out)
