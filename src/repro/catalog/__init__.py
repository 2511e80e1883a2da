"""Study inputs: the resolver catalog and the browser/resolver matrix.

:mod:`repro.catalog.resolvers` holds the 91 public DoH resolvers the paper
measured (Appendix A.2 plus the remainder of the DNSCrypt public list),
each with deployment metadata — operator, site city/cities, anycast,
mainstream flag, performance and reliability tiers, ICMP policy.
:mod:`repro.catalog.browsers` holds Table 1 (which resolvers each major
browser offers).
"""

from repro.catalog.resolvers import (
    CATALOG,
    CatalogEntry,
    entries_by_region,
    entry_for,
)
from repro.catalog.browsers import BROWSER_MATRIX

__all__ = [
    "BROWSER_MATRIX",
    "CATALOG",
    "CatalogEntry",
    "entries_by_region",
    "entry_for",
]
