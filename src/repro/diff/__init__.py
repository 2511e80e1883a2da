"""Cross-resolver answer differencing (respdiff-style).

The availability/latency study asks *whether* and *how fast* resolvers
answer; this package asks whether they answer the *same thing*.  A diff
campaign fields the same query to every deployment (``capture_responses``
stores the raw wire message on each record), the engine canonically
normalizes the answers (:mod:`repro.dnswire.canonical`), diffs each
resolver against the fleet consensus field by field, classifies every
disagreement into a small taxonomy, and a ``diffrepro``-style re-query
pass labels each disagreement reproducible or transient.

Pipeline (mirroring CZ-NIC respdiff's msgdiff / diffsum / diffrepro):

1. :func:`repro.parallel.run_campaigns` of a
   :func:`~repro.experiments.campaigns.diff_campaign_config` — the
   same-query fan-out campaign, serial or sharded, RAM or warehouse
   backed;
2. :func:`build_diff_report` — stream the records (any iterable of
   :class:`~repro.core.results.MeasurementRecord`) into a
   :class:`DiffReport`: per-resolver disagreement rates, per-field
   mismatch shares, taxonomy counts;
3. :func:`verify_reproducibility` — fold the records of a re-query
   campaign over the disagreeing cells (``diff --verify``) into a
   reproducible/transient label per disagreement.

Everything downstream of the record multiset is a pure function of it, so
diff reports are byte-identical for any worker count.
"""

from repro.diff.engine import DiffReport, build_diff_report
from repro.diff.records import DiffRecord
from repro.diff.requery import verify_reproducibility

__all__ = [
    "DiffRecord",
    "DiffReport",
    "build_diff_report",
    "verify_reproducibility",
]
