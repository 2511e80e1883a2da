"""X2 — §4's vantage-point maxima of per-resolver medians.

Paper: home max 399 ms and Ohio max 270 ms (Figure 1 context: NA-located
resolvers); Frankfurt max 380 ms and Seoul max 569 ms (cross-continent
context: all resolvers).  The simulated substrate reproduces the order of
magnitude and the qualitative ordering (remote vantage points see larger
maxima than the local ones).
"""

from repro.analysis.response_times import resolver_medians
from repro.catalog.resolvers import entries_by_region
from repro.experiments.campaigns import HOME_VANTAGE_NAMES
from benchmarks.conftest import print_artifact

PAPER = {"home": 399.0, "ec2-ohio": 270.0, "ec2-frankfurt": 380.0, "ec2-seoul": 569.0}


def test_vantage_maxima(benchmark, study_store):
    na_hostnames = {entry.hostname for entry in entries_by_region("NA")}

    def compute():
        maxima = {}
        # Home + Ohio: NA resolvers (Figure 1 scope).
        home = {
            k: v
            for k, v in resolver_medians(study_store, vantage=HOME_VANTAGE_NAMES).items()
            if k in na_hostnames
        }
        maxima["home"] = max(home.items(), key=lambda kv: kv[1])
        ohio = {
            k: v
            for k, v in resolver_medians(study_store, vantage="ec2-ohio").items()
            if k in na_hostnames
        }
        maxima["ec2-ohio"] = max(ohio.items(), key=lambda kv: kv[1])
        # Frankfurt + Seoul: all resolvers.
        for vantage in ("ec2-frankfurt", "ec2-seoul"):
            medians = resolver_medians(study_store, vantage=vantage)
            maxima[vantage] = max(medians.items(), key=lambda kv: kv[1])
        return maxima

    maxima = benchmark(compute)
    lines = []
    for vantage, paper_value in PAPER.items():
        resolver, measured = maxima[vantage]
        assert 0.33 * paper_value <= measured <= 3.0 * paper_value, (vantage, measured)
        lines.append(
            f"{vantage:<14} paper {paper_value:>4.0f} ms | measured {measured:>5.0f} ms ({resolver})"
        )

    # Qualitative orderings from the paper's prose.
    assert maxima["home"][1] > maxima["ec2-ohio"][1]  # home adds access latency
    print_artifact("X2: max per-resolver median by vantage", "\n".join(lines))
