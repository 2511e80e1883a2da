#!/usr/bin/env python
"""Resolver selection: acting on the paper's findings.

The paper's motivation is that browsers offer only a few mainstream
resolvers, while many viable alternatives exist.  This example plays the
role of a client that *uses* the measurement platform to choose resolvers:

1. measure all 91 resolvers from a chosen vantage point;
2. filter to resolvers with acceptable availability (>= 95%);
3. rank by median response time;
4. print the best mainstream choice, the best non-mainstream choice, and
   a diversified shortlist (best resolver per operator) — the input a
   K-resolver-style query-distribution scheme would want.

Run:  python examples/resolver_selection.py [vantage]
"""

import sys

from repro.analysis.availability import per_resolver_availability
from repro.analysis.render import render_table
from repro.analysis.response_times import resolver_medians
from repro.catalog.resolvers import entry_for
from repro.experiments.campaigns import study_legs
from repro.parallel import run_campaigns


def main() -> None:
    vantage = sys.argv[1] if len(sys.argv) > 1 else "ec2-frankfurt"
    print(f"measuring all resolvers from {vantage} (this takes a few seconds)...")
    store = run_campaigns(study_legs(home_rounds=0, ec2_rounds=8), world_seed=23).store

    availability = per_resolver_availability(store, vantage=vantage)
    medians = resolver_medians(store, vantage=vantage)
    usable = {
        hostname: med
        for hostname, med in medians.items()
        if availability.get(hostname, 0.0) >= 0.95
    }
    ranked = sorted(usable.items(), key=lambda item: item[1])

    best_mainstream = next((h for h, _m in ranked if entry_for(h).mainstream), None)
    best_alternative = next((h for h, _m in ranked if not entry_for(h).mainstream), None)

    print(f"\n{len(usable)} of {len(medians)} responsive resolvers meet 95% availability")
    if best_mainstream:
        print(f"best mainstream choice:     {best_mainstream} ({usable[best_mainstream]:.1f} ms)")
    if best_alternative:
        print(f"best non-mainstream choice: {best_alternative} ({usable[best_alternative]:.1f} ms)")

    # A diversified shortlist: the fastest resolver of each distinct operator.
    shortlist = {}
    for hostname, med in ranked:
        operator = entry_for(hostname).operator
        if operator not in shortlist:
            shortlist[operator] = (hostname, med)
        if len(shortlist) == 8:
            break
    print("\ndiversified shortlist (one resolver per operator, for query distribution):")
    rows = [
        (operator, hostname, f"{med:.1f}",
         f"{availability.get(hostname, 0.0):.0%}",
         "mainstream" if entry_for(hostname).mainstream else "alternative")
        for operator, (hostname, med) in shortlist.items()
    ]
    print(render_table(("operator", "resolver", "median ms", "avail", "tier"), rows))


if __name__ == "__main__":
    main()
