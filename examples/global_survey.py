#!/usr/bin/env python
"""Global survey: the paper's EC2 campaign, condensed.

Measures every catalog resolver from the three EC2 vantage points (Ohio,
Frankfurt, Seoul), then prints:

* availability (success/error counts and the dominant error class);
* per-region median response times from each vantage point, showing the
  paper's central result — non-mainstream resolvers fall off a cliff when
  queried from a distant region, mainstream anycast does not;
* the Figure 1 panel (North-America resolvers from Ohio) as ASCII
  boxplots.

Run:  python examples/global_survey.py
"""

from repro.analysis.availability import availability_report
from repro.analysis.figures import paper_figure
from repro.analysis.render import render_boxplot_rows, render_table
from repro.analysis.response_times import resolver_medians
from repro.analysis.stats import median
from repro.catalog.browsers import mainstream_hostnames
from repro.catalog.resolvers import entries_by_region
from repro.experiments.campaigns import study_legs
from repro.parallel import run_campaigns

VANTAGES = ("ec2-ohio", "ec2-frankfurt", "ec2-seoul")
REGIONS = ("NA", "EU", "AS", "OC")


def main() -> None:
    print("running the EC2 campaign (this takes a few seconds)...")
    store = run_campaigns(study_legs(home_rounds=0, ec2_rounds=8), world_seed=7).store

    print("\n== Availability ==")
    print(availability_report(store).describe())

    print("\n== Median response time (ms) by resolver region x vantage point ==")
    mainstream = set(mainstream_hostnames())
    rows = []
    for region in REGIONS:
        hostnames = [
            e.hostname for e in entries_by_region(region) if e.hostname not in mainstream
        ]
        row = [f"{region} (non-mainstream)"]
        for vantage in VANTAGES:
            medians = resolver_medians(store, vantage=vantage, resolvers=hostnames)
            row.append(f"{median(list(medians.values())):.0f}" if medians else "—")
        rows.append(tuple(row))
    row = ["mainstream (anycast)"]
    for vantage in VANTAGES:
        medians = resolver_medians(store, vantage=vantage, resolvers=mainstream)
        row.append(f"{median(list(medians.values())):.0f}" if medians else "—")
    rows.append(tuple(row))
    print(render_table(("resolver group",) + VANTAGES, rows))

    print("\n== Figure 1: NA resolvers measured from Ohio ==")
    panels = paper_figure(store, "figure1", mainstream_hostnames())
    print(render_boxplot_rows(panels["ec2-ohio"], include_ping=False))


if __name__ == "__main__":
    main()
