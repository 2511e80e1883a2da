"""X1 — §4's local-winner claims.

The paper: "ordns.he.net ... managed to outperform all mainstream
resolvers from the home network devices.  From Frankfurt, dns.brahma.world
outperforms dns.cloudflare.com; from Seoul, dns.alidns.com outperforms
dns.quad9.net, dns.google, and dns.cloudflare.com; and from Ohio,
freedns.controld.com outperforms dns.google and dns.cloudflare.com."
"""

from repro.analysis.response_times import local_winners, resolver_medians
from repro.experiments.campaigns import HOME_VANTAGE_NAMES
from benchmarks.conftest import print_artifact

MAINSTREAM_CORE = (
    "dns.google",
    "security.cloudflare-dns.com",
    "family.cloudflare-dns.com",
    "dns.quad9.net",
    "dns9.quad9.net",
)


def _pooled_home_median(store, resolver: str):
    return resolver_medians(store, vantage=HOME_VANTAGE_NAMES).get(resolver)


def test_he_net_beats_all_mainstream_from_home(benchmark, study_store):
    he = benchmark(_pooled_home_median, study_store, "ordns.he.net")
    assert he is not None
    lines = [f"ordns.he.net: {he:.1f} ms (pooled home devices)"]
    for hostname in MAINSTREAM_CORE:
        other = _pooled_home_median(study_store, hostname)
        assert other is not None
        assert he < other, hostname
        lines.append(f"  beats {hostname}: {other:.1f} ms")
    print_artifact("X1: ordns.he.net from home", "\n".join(lines))


def test_controld_beats_google_and_cloudflare_from_ohio(benchmark, study_store):
    winners = benchmark(
        local_winners, study_store, "ec2-ohio",
        ["freedns.controld.com"],
        ["dns.google", "security.cloudflare-dns.com"],
    )
    assert winners
    assert set(winners[0].beats) == {"dns.google", "security.cloudflare-dns.com"}
    print_artifact(
        "X1: freedns.controld.com from Ohio",
        f"median {winners[0].median_ms:.1f} ms, beats {', '.join(winners[0].beats)}",
    )


def test_brahma_beats_cloudflare_from_frankfurt(benchmark, study_store):
    winners = benchmark(
        local_winners, study_store, "ec2-frankfurt",
        ["dns.brahma.world"],
        ["security.cloudflare-dns.com"],
    )
    assert winners and "security.cloudflare-dns.com" in winners[0].beats
    print_artifact(
        "X1: dns.brahma.world from Frankfurt",
        f"median {winners[0].median_ms:.1f} ms, beats {', '.join(winners[0].beats)}",
    )


def test_alidns_beats_big_three_from_seoul(benchmark, study_store):
    winners = benchmark(
        local_winners, study_store, "ec2-seoul",
        ["dns.alidns.com"],
        ["dns.quad9.net", "dns.google", "security.cloudflare-dns.com"],
    )
    assert winners
    assert {"dns.quad9.net", "dns.google", "security.cloudflare-dns.com"} <= set(winners[0].beats)
    print_artifact(
        "X1: dns.alidns.com from Seoul",
        f"median {winners[0].median_ms:.1f} ms, beats {', '.join(winners[0].beats)}",
    )


def test_big_three_top_five_everywhere(benchmark, study_store):
    """Quad9/Google/Cloudflare are among the top-5 from every EC2 vantage."""
    big = {
        "dns.quad9.net", "dns9.quad9.net", "dns10.quad9.net",
        "dns11.quad9.net", "dns12.quad9.net", "dns.google",
        "security.cloudflare-dns.com", "family.cloudflare-dns.com",
        "1dot1dot1dot1.cloudflare-dns.com",
    }
    lines = []

    def compute():
        out = {}
        for vantage in ("ec2-ohio", "ec2-frankfurt", "ec2-seoul"):
            medians = resolver_medians(study_store, vantage=vantage)
            out[vantage] = [h for h, _v in sorted(medians.items(), key=lambda kv: kv[1])[:5]]
        return out

    top5 = benchmark(compute)
    for vantage, names in top5.items():
        assert any(name in big for name in names), (vantage, names)
        lines.append(f"{vantage}: {', '.join(names)}")
    print_artifact("Top-5 resolvers per EC2 vantage", "\n".join(lines))
