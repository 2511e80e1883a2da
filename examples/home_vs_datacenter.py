#!/usr/bin/env python
"""Home networks vs data-centre vantage points (§4, home/EC2 contrast).

The paper ran the same measurements from Raspberry Pis in Chicago homes
and from EC2.  This example reproduces the comparison: for each resolver
measured from both a Chicago home device and the Ohio EC2 instance, print
the median and IQR from each vantage kind, then summarize how access
networks shift the distribution (higher base latency, more spread).

Run:  python examples/home_vs_datacenter.py
"""

from repro.analysis.render import render_table
from repro.analysis.response_times import resolver_medians, variability
from repro.analysis.stats import median
from repro.experiments.campaigns import study_legs
from repro.parallel import run_campaigns

SHOWN = [
    "ordns.he.net",
    "dns.quad9.net",
    "dns.google",
    "security.cloudflare-dns.com",
    "freedns.controld.com",
    "doh.la.ahadns.net",
    "dns.twnic.tw",
    "antivirus.bebasid.com",
]


def main() -> None:
    print("running home + EC2 campaigns (this takes a few seconds)...")
    store = run_campaigns(study_legs(home_rounds=10, ec2_rounds=10), world_seed=11).store

    home_medians = resolver_medians(store, vantage="home-chicago-1")
    ohio_medians = resolver_medians(store, vantage="ec2-ohio")

    rows = []
    for hostname in SHOWN:
        home = home_medians.get(hostname)
        ohio = ohio_medians.get(hostname)
        home_iqr = variability(store, hostname, vantage="home-chicago-1")
        ohio_iqr = variability(store, hostname, vantage="ec2-ohio")
        rows.append(
            (
                hostname,
                f"{home:.1f}" if home is not None else "—",
                f"{home_iqr:.1f}" if home_iqr is not None else "—",
                f"{ohio:.1f}" if ohio is not None else "—",
                f"{ohio_iqr:.1f}" if ohio_iqr is not None else "—",
            )
        )
    print()
    print(
        render_table(
            ("resolver", "home med", "home IQR", "ohio med", "ohio IQR"), rows
        )
    )

    common = set(home_medians) & set(ohio_medians)
    deltas = [home_medians[h] - ohio_medians[h] for h in common]
    print(
        f"\nacross {len(common)} resolvers, the home vantage point adds a median of "
        f"{median(deltas):.1f} ms over EC2 Ohio"
    )
    print("(the paper: medians are almost identical for home and Ohio EC2, with")
    print(" the home access link adding a few milliseconds and extra variability)")


if __name__ == "__main__":
    main()
