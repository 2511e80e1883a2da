"""The diffrepro pass: is a disagreement reproducible or transient?

A disagreement seen once may be a stable property of the resolver (it
really serves different zone data, or an injected answer fault rewrites
its responses) or a one-off (an unlucky SERVFAIL roll, a timeout under
jitter).  Following respdiff's ``diffrepro``, ``diff --verify N`` measures
the disagreeing cells again in an N-round campaign (same world seed, same
fault plan) and this fold labels each disagreement from its records.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from repro.core.results import MeasurementRecord
from repro.diff.engine import DiffReport
from repro.dnswire.canonical import canonical_form_from_wire
from repro.errors import CampaignConfigError


def verify_reproducibility(
    report: DiffReport,
    records: Iterable[MeasurementRecord],
    attempts: int = 3,
) -> DiffReport:
    """Label every disagreement in ``report`` from its re-queries (in place).

    ``records`` are the re-query campaign's, matched to a disagreement by
    (vantage, resolver, domain, transport).  It is ``reproducible`` only
    when all ``attempts`` re-queries answered and diverged again.
    """
    if attempts < 1:
        raise CampaignConfigError(f"attempts must be >= 1, got {attempts!r}")
    answers: Dict[Tuple[str, str, str, str], List[str]] = defaultdict(list)
    for record in records:
        if record.kind == "dns_query" and record.response_wire:
            key = (record.vantage, record.resolver, record.domain, record.transport)
            wire = bytes.fromhex(record.response_wire)
            answers[key].append(canonical_form_from_wire(wire).render())
    for record in report.disagreements():
        key = (record.vantage, record.resolver, record.domain, record.transport)
        record.verify_attempts = attempts
        record.verify_disagreements = sum(
            answer != record.expected for answer in answers[key]
        )
        record.reproducible = record.verify_disagreements == attempts
    return report
