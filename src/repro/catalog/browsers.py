"""Table 1: encrypted-DNS resolver choices offered by major browsers.

The paper defines *mainstream* resolvers as those appearing in this table
(as of May 9, 2024).  Providers map to concrete DoH hostnames in
:mod:`repro.catalog.resolvers`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Provider columns of Table 1, in the paper's order.
PROVIDERS: Tuple[str, ...] = (
    "Cloudflare",
    "Google",
    "Quad9",
    "NextDNS",
    "CleanBrowsing",
    "OpenDNS",
)

#: Table 1 rows: browser -> providers it offers.
BROWSER_MATRIX: Dict[str, Tuple[str, ...]] = {
    "Chrome": ("Cloudflare", "Google", "Quad9", "NextDNS", "CleanBrowsing"),
    "Firefox": ("Cloudflare", "NextDNS"),
    "Edge": ("Cloudflare", "Google", "Quad9", "NextDNS", "CleanBrowsing", "OpenDNS"),
    "Opera": ("Cloudflare", "Google"),
    "Brave": ("Cloudflare", "Google", "Quad9", "NextDNS", "CleanBrowsing", "OpenDNS"),
}

#: Provider -> the DoH hostnames it operates in the catalog.
PROVIDER_HOSTNAMES: Dict[str, Tuple[str, ...]] = {
    "Cloudflare": (
        "security.cloudflare-dns.com",
        "family.cloudflare-dns.com",
        "1dot1dot1dot1.cloudflare-dns.com",
    ),
    "Google": ("dns.google",),
    "Quad9": (
        "dns.quad9.net",
        "dns9.quad9.net",
        "dns10.quad9.net",
        "dns11.quad9.net",
        "dns12.quad9.net",
    ),
    "NextDNS": ("dns.nextdns.io", "anycast.dns.nextdns.io"),
    "CleanBrowsing": ("doh.cleanbrowsing.org",),
    "OpenDNS": ("doh.opendns.com",),
}


def mainstream_hostnames() -> List[str]:
    """Every hostname operated by a Table 1 provider."""
    out: List[str] = []
    for hostnames in PROVIDER_HOSTNAMES.values():
        out.extend(hostnames)
    return out
