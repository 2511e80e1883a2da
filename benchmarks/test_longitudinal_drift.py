"""L1 — §3.2's monthly re-measurement: resolver performance stability.

The paper re-measured for 1–3 days per month through May 2024 "to ensure
that resolver performance did not change drastically since October 2023"
— and found it had not.  The simulated world is stationary by design, so
the drift analysis must report (near-)full stability across re-checks,
with the dead resolvers excluded by construction (they never produce a
baseline median).
"""

from repro.analysis.longitudinal import drift_reports_from_records
from repro.core.results import ResultStore
from repro.experiments.campaigns import study_legs
from repro.parallel import run_campaigns
from benchmarks.conftest import print_artifact


def test_monthly_recheck_stability(benchmark):
    def run():
        store = run_campaigns(
            study_legs(
                home_rounds=0, ec2_rounds=6,
                recheck_months=["feb-2024", "mar-2024", "apr-2024"],
            ),
            shards=1,
        ).store
        return drift_reports_from_records(store, vantage="ec2-ohio")

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(reports) == 3
    lines = []
    for report in reports:
        # Stationary world: at least 90% of resolvers stable per re-check
        # (transient loss/tails can wiggle a flaky resolver's short-window
        # median past the 2x threshold occasionally, as in real data).
        assert report.stable_fraction >= 0.9, report.describe()
        assert 0.5 <= report.median_latency_ratio <= 2.0
        lines.append(report.describe())
    print_artifact("L1: monthly re-check drift (vs first EC2 campaign)", "\n".join(lines))
