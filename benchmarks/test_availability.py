"""AV-3 — §4 availability: no consistent per-round failing subset.

Paper: "we did not identify a consistent pattern of not receiving
responses from a certain subset of resolvers each time".  The other
availability assertions are claims AV-1, AV-2 and AV-4 of
``repro-dns report``; this one stays a bench until AV-3's bound is
decided over several world seeds (ROADMAP item 6).
"""

from repro.analysis.availability import failure_pattern_consistency
from benchmarks.conftest import print_artifact


def test_no_consistent_failure_pattern(benchmark, study_store):
    consistency = benchmark(failure_pattern_consistency, study_store)
    # Paper: "we did not identify a consistent pattern of not receiving
    # responses from a certain subset of resolvers each time".
    assert consistency < 0.5
    print_artifact(
        "Failure-pattern consistency (median round-to-round Jaccard)",
        f"{consistency:.3f}  (paper: no consistent pattern -> low score)",
    )
