"""Run every experiment and compare against the paper's reported values.

:func:`generate_report` runs the full study through the shard plan (or
reads a caller-supplied result store) and evaluates each claim from §4,
recording the paper's value next to the measured one.  Every assertion the
reproduction makes about the paper's figures, tables and §4 is one row
here, read from one :class:`~repro.analysis.table.RecordTable`;
``repro-dns report`` prints the rows and EXPERIMENTS.md archives them.

A row carries its numbers (:attr:`ClaimResult.values`, and the paper's in
:attr:`ClaimResult.paper`); the families of :data:`SECTIONS` make the rows.

The paper measured DoH alone.  The table's second section,
:func:`transport_claims`, holds the related work's claims about transports
and sessions (connection reuse, anycast, the TLS x HTTP handshake, the
resolver cache, DoQ), each row citing the work it reproduces and measured
on a tiny world of its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from math import inf, nan
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.availability import (
    availability_report,
    failure_pattern_consistency,
    retry_burden,
    unresponsive_resolvers,
)
from repro.analysis.correlation import latency_correlations_from_records
from repro.analysis.figures import FigureRow, paper_figure, region_panel_hostnames
from repro.analysis.render import render_boxplot_rows, render_delta_table, render_table
from repro.analysis.response_times import VantageDelta, resolver_medians
from repro.analysis.stats import median
from repro.analysis.table import RecordTable
from repro.analysis.tables import delta_table_as_text_rows, table1_rows, table2_rows, table3_rows
from repro.catalog.browsers import PROVIDER_HOSTNAMES, mainstream_hostnames
from repro.catalog.resolvers import CATALOG, CatalogEntry, entries_by_region
from repro.core.errors_taxonomy import ESTABLISHMENT_VALUES
from repro.core.probes import ProbeConfig, ProbeOutcome, make_probe
from repro.core.results import ResultStore
from repro.errors import AnalysisError, CampaignConfigError
from repro.experiments.campaigns import (
    EC2_VANTAGE_NAMES,
    HOME_VANTAGE_NAMES,
    fault_study_legs,
    study_legs,
)
from repro.experiments.world import World, build_world
from repro.parallel import ParallelRun, run_campaigns
from repro.session import COLD_TERMS, SessionTerms
from repro.tlssim.session import SessionCache

#: §4 reported numbers used for paper-vs-measured rows.
PAPER_VALUES = {
    "availability.successes": 5_098_281,
    "availability.errors": 311_351,
    "availability.error_rate": 311_351 / (5_098_281 + 311_351),
    "max_median.home": 399.0,
    "max_median.ec2-ohio": 270.0,
    "max_median.ec2-frankfurt": 380.0,
    "max_median.ec2-seoul": 569.0,
    "table2": [
        ("antivirus.bebasid.com", 99.0, 380.0),
        ("dns.twnic.tw", 59.0, 290.0),
        ("dnslow.me", 29.0, 240.0),
        ("jp.tiar.app", 39.0, 250.0),
        ("public.dns.iij.jp", 39.5, 250.0),
    ],
    "table3": [
        ("doh.ffmuc.net", 70.0, 569.0),
        ("dns0.eu", 20.0, 399.0),
        ("open.dns0.eu", 10.0, 324.0),
        ("kids.dns0.eu", 10.0, 309.0),
        ("dns.njal.la", 20.0, 289.0),
    ],
}

#: §4 local-winner claims: (winner, medians key, mainstream resolvers beaten).
LOCAL_WINNER_CLAIMS: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("ordns.he.net", "home-pooled", ("dns.google", "security.cloudflare-dns.com",
                                     "family.cloudflare-dns.com", "dns.quad9.net",
                                     "dns9.quad9.net")),
    ("freedns.controld.com", "ec2-ohio", ("dns.google", "security.cloudflare-dns.com")),
    ("dns.brahma.world", "ec2-frankfurt", ("security.cloudflare-dns.com",)),
    ("dns.alidns.com", "ec2-seoul", ("dns.quad9.net", "dns.google",
                                     "security.cloudflare-dns.com")),
]

#: Figure 2's unicast NA resolvers, which pay distance from Frankfurt and Seoul.
UNICAST_NA = ("kronos.plan9-dns.com", "dohtrial.att.net", "doh.safesurfer.io")

#: The stale catalog entries: unresponsive from every vantage point.
DEAD_RESOLVERS = {"doh.dnslify.com", "dns.pumplex.com"}

#: The claim table's second section, and the related work its rows cite
#: (PAPERS.md).
TRANSPORTS_SECTION = "related work: transports and sessions"
HOUNSEL_2020 = "Hounsel et al. 2020"
BOETTGER_2019 = "Boettger et al. 2019"
KOSEK_2023 = "Kosek et al. 2023"


@dataclass
class ClaimResult:
    """One paper claim, evaluated against measured data."""

    claim_id: str
    description: str
    paper_value: str
    measured_value: str
    holds: bool
    #: The named numbers the verdict reads and the text prints; NaN where
    #: the sample was empty, which no bound holds for.
    values: Dict[str, float]
    #: The related work a transport row reproduces; empty for the paper's own.
    cites: str = ""
    #: The paper's number under its ``values`` key, where PAPER_VALUES has one.
    paper: Dict[str, float] = field(default_factory=dict)
    #: The title of the :data:`SECTIONS` entry whose family made the row.
    section: str = ""

    def as_row(self) -> Tuple[str, str, str, str]:
        return (
            self.claim_id,
            self.description,
            f"{self.cites}: {self.paper_value}" if self.cites else self.paper_value,
            self.measured_value + ("  [OK]" if self.holds else "  [DIVERGES]"),
        )


@dataclass
class PaperReport:
    """All evaluated claims plus rendered artifacts."""

    claims: List[ClaimResult] = field(default_factory=list)
    rendered_tables: Dict[str, str] = field(default_factory=dict)
    rendered_figures: Dict[str, str] = field(default_factory=dict)
    store: Optional[ResultStore] = None
    #: The runs the report made itself (none from a caller's store): the
    #: study, then the fault campaign, whose records stay out of ``store``
    #: so fault windows don't contaminate the §4 claims.
    runs: List[ParallelRun] = field(default_factory=list)

    @property
    def holds_count(self) -> int:
        return sum(1 for claim in self.claims if claim.holds)

    def describe(self) -> str:
        tables = []
        for title, column, _families in SECTIONS:
            rows = [claim.as_row() for claim in self.claims if claim.section == title]
            if rows or not title:
                text = render_table(("id", "claim", column, "measured"), rows)
                tables.append(f"{title}\n{text}" if title else text)
        return "\n\n".join(tables) + f"\n{self.holds_count}/{len(self.claims)} claims hold"


@dataclass
class _Study:
    """What the row families read, each made once from the study's fold."""

    table: RecordTable
    #: Median response time per resolver, per EC2 vantage and for the
    #: pooled home devices (``"home-pooled"``), in first-answer order.
    medians: Dict[str, Dict[str, float]]
    figures: Dict[str, Dict[str, List[FigureRow]]]
    deltas: Dict[str, List[VantageDelta]]
    #: The fault campaign's fold; None when the report read a caller's store.
    faults: Optional[RecordTable]
    #: The report ran its own study, so the related work's worlds are its own too.
    own_study: bool


def generate_report(
    store: Optional[ResultStore] = None,
    home_rounds: Optional[int] = None,
    ec2_rounds: Optional[int] = None,
    seed: int = 0,
    collect_spans: bool = False,
    collect_metrics: bool = False,
) -> PaperReport:
    """Run the study (if needed) and evaluate every §4 claim.

    With no ``store`` the function runs the identity plan of the study
    (``home_rounds`` / ``ec2_rounds``, the ``report`` flags) on worlds
    built from ``seed``, and also the identity plan of the 8-round
    fault-injected campaign — into a *separate* store — whose FAULT-*
    claims it evaluates against the paper's reported error shape.  A
    caller-supplied ``store`` skips the fault campaign (the matching world
    is unknown), and the related work's section too, so that a report on a
    caller's store reads that store alone.  ``collect_spans`` and
    ``collect_metrics`` reach the runs, which land on ``PaperReport.runs``.
    """
    runs: List[ParallelRun] = []
    if store is None:
        if home_rounds is None or ec2_rounds is None:
            raise CampaignConfigError("a report needs a store or both round counts")
        execution = dict(
            world_seed=seed, shards=1,
            collect_spans=collect_spans, collect_metrics=collect_metrics,
        )
        fault_legs, fault_plan = fault_study_legs()
        runs = [
            run_campaigns(study_legs(home_rounds=home_rounds, ec2_rounds=ec2_rounds), **execution),
            run_campaigns(fault_legs, fault_plan=fault_plan, **execution),
        ]
        store = runs[0].store
    table = RecordTable.of(store)
    medians = {vantage: resolver_medians(table, vantage=vantage) for vantage in EC2_VANTAGE_NAMES}
    # The paper pools its home devices into one "U.S. Home Networks" series.
    medians["home-pooled"] = resolver_medians(table, vantage=HOME_VANTAGE_NAMES)
    figures = {
        figure: paper_figure(table, figure, mainstream_hostnames(), home_vantages=HOME_VANTAGE_NAMES)
        for figure in ("figure1", "figure2", "figure3", "figure4")
    }
    study = _Study(
        table, medians, figures, {"T2": table2_rows(medians), "T3": table3_rows(medians)},
        RecordTable.of(runs[1].store) if runs and len(runs[1].store) > 0 else None,
        own_study=bool(runs),
    )
    report = PaperReport(store=store, runs=runs, claims=[
        replace(claim, section=title)
        for title, _column, families in SECTIONS for family in families
        for claim in family(study)
    ])

    # -- rendered artifacts ---------------------------------------------------------------
    header, rows = table1_rows()
    report.rendered_tables["table1"] = render_table(header, rows)
    for name, region, near, far in (("2", "Asian", "Seoul", "Frankfurt"),
                                    ("3", "European", "Frankfurt", "Seoul")):
        report.rendered_tables[f"table{name}"] = render_delta_table(
            f"Table {name}: median DNS response times, {region} non-mainstream resolvers",
            near, far, delta_table_as_text_rows(study.deltas[f"T{name}"]),
        )
    for figure, panels in figures.items():
        rendered = []
        for vantage, fig_rows in panels.items():
            rendered.append(f"--- {figure} / {vantage} ---")
            rendered.append(render_boxplot_rows(fig_rows, include_ping=False))
        report.rendered_figures[figure] = "\n".join(rendered)

    return report


def _row(
    claim_id: str, description: str, paper_value: str, text: str, values: Dict[str, float],
    holds: Callable[[Dict[str, float]], bool], cites: str = "",
    paper: Optional[Dict[str, float]] = None, **names: str,
) -> ClaimResult:
    """A row made from its numbers: the verdict is ``holds(values)``, the
    text the ``text`` template over ``values`` and the ``names`` it prints."""
    return ClaimResult(
        claim_id, description, paper_value, text.format(**values, **names), holds(values),
        values, cites, paper or {},
    )


def _median(values: List[float]) -> float:
    """The median; NaN (which no bound holds for) of an empty sample."""
    return median(values) if values else nan


def _upper_median(values: List[float]) -> float:
    """The middle value, the upper one of an even sample; NaN of an empty one."""
    return sorted(values)[len(values) // 2] if values else nan


def _local_edge(
    medians: Dict[str, Dict[str, float]], hostnames: List[str], near: str, fars: Tuple[str, ...],
) -> Dict[str, float]:
    """How often ``near`` measured the lower median (``held``) of ``compared``
    resolvers seen from it and from one of ``fars``."""
    pairs = [
        (name, far) for name in hostnames for far in fars
        if name in medians[near] and name in medians[far]
    ]
    return {"held": sum(medians[near][name] < medians[far][name] for name, far in pairs),
            "compared": len(pairs)}


# -- the paper's rows -------------------------------------------------------------------

_ERRORS = "{error_rate:.1%} errors ({errors:,}/{attempts:,})"
_GROUPS = "mainstream {mainstream_ms:.0f} ms vs non-mainstream {non_mainstream_ms:.0f} ms"


def _errors(table: RecordTable) -> Tuple[Dict[str, float], Dict[str, float], str]:
    """The error-rate numbers, the establishment numbers and the dominant class."""
    report = availability_report(table)
    return (
        {"error_rate": report.error_rate, "errors": report.errors, "attempts": report.attempts},
        {"establishment_share": report.connection_establishment_share,
         "establishment_dominant": float(report.dominant_error_class in ESTABLISHMENT_VALUES)},
        report.dominant_error_class,
    )


def _availability_claims(study: _Study) -> List[ClaimResult]:
    """AV-1..4: how many queries fail, how, and which resolvers never answer."""
    errors, share, _dominant = _errors(study.table)
    rate = PAPER_VALUES["availability.error_rate"]
    paper = {"error_rate": rate, "errors": PAPER_VALUES["availability.errors"],
             "attempts": PAPER_VALUES["availability.successes"] + PAPER_VALUES["availability.errors"]}
    unresponsive = unresponsive_resolvers(study.table)
    return [
        _row("AV-1", "most queries succeed (error rate in the ~2-10% band)",
             _ERRORS.format(**paper), _ERRORS, errors,
             # The band, and within a factor of two of the paper's rate.
             lambda v: 0.02 <= v["error_rate"] <= 0.10 and 0.5 * rate <= v["error_rate"] <= 2.0 * rate,
             paper=paper),
        _row("AV-2", "connection-establishment failures dominate errors", "most common error class",
             "{establishment_share:.0%} of errors", share,
             lambda v: v["establishment_share"] > 0.5 and v["establishment_dominant"] == 1.0),
        _row("AV-3", "no consistent per-round failing-resolver subset", "no consistent pattern",
             "median round-to-round Jaccard {jaccard:.2f}",
             {"jaccard": failure_pattern_consistency(study.table)}, lambda v: v["jaccard"] < 0.5),
        _row("AV-4", "only the stale catalog entries never answer from any vantage",
             "some listed resolvers unresponsive", "{names}",
             {"unresponsive": len(unresponsive),
              "stale": len(DEAD_RESOLVERS.intersection(unresponsive))},
             lambda v: v["unresponsive"] == v["stale"] == len(DEAD_RESOLVERS),
             names=", ".join(unresponsive) or "none"),
    ]


def _fault_claims(study: _Study) -> List[ClaimResult]:
    """FAULT-1..3: the poster's error shape (≈5.8% of attempts failing, most
    in connection establishment) from injected outage/TLS/loss windows."""
    if study.faults is None:
        return []
    errors, share, dominant = _errors(study.faults)
    rate = PAPER_VALUES["availability.error_rate"]
    return [
        _row("FAULT-1", "fault-injected campaign error rate in the paper's ~5-6% band",
             f"{rate:.1%} errors", _ERRORS, errors, lambda v: 0.035 <= v["error_rate"] <= 0.085,
             paper={"error_rate": rate}),
        _row("FAULT-2", "connection-establishment classes dominate injected-fault errors",
             "most common error class", "{establishment_share:.0%} of errors (dominant: {dominant})",
             share, lambda v: v["establishment_share"] > 0.5, dominant=dominant),
        _row("FAULT-3", "retries resolve some transient failures (mean attempts > 1)",
             "transient failures, no consistent pattern", "mean attempts/query {burden:.3f}",
             {"burden": retry_burden(study.faults)}, lambda v: v["burden"] > 1.0),
    ]


def _vantage_claims(study: _Study) -> List[ClaimResult]:
    """MS-* and TOP5-*, per EC2 vantage: mainstream median-of-medians
    against the rest, and one of the big three among the five fastest."""
    mainstream = mainstream_hostnames()
    big_three = {name for operator in ("Quad9", "Google", "Cloudflare")
                 for name in PROVIDER_HOSTNAMES[operator]}
    groups, top5s = [], []
    for vantage in EC2_VANTAGE_NAMES:
        medians = study.medians[vantage]
        groups.append(_row(
            f"MS-{vantage}", f"mainstream median-of-medians beats non-mainstream ({vantage})",
            "mainstream outperform from most vantage points", _GROUPS,
            {"mainstream_ms": _median([ms for name, ms in medians.items() if name in mainstream]),
             "non_mainstream_ms": _median(
                 [ms for name, ms in medians.items() if name not in mainstream])},
            lambda v: v["mainstream_ms"] < v["non_mainstream_ms"],
        ))
        top5 = [name for name, _ms in sorted(medians.items(), key=lambda item: item[1])[:5]]
        top5s.append(_row(
            f"TOP5-{vantage}", f"Quad9/Google/Cloudflare among top-5 ({vantage})",
            "among the top five highest performing", "{top5}",
            {"big_three": sum(name in big_three for name in top5)}, lambda v: v["big_three"] > 0,
            top5=", ".join(top5),
        ))
    return groups + top5s


def _local_winner_claims(study: _Study) -> List[ClaimResult]:
    """X1-*: each local winner's median under every mainstream median it
    should beat, from its vantage (the pooled home devices for he.net)."""
    claims = []
    for winner, vantage, beaten in LOCAL_WINNER_CLAIMS:
        medians = study.medians[vantage]
        values = {name: medians.get(name, nan) for name in (winner, *beaten)}
        beats = [name for name in beaten if values[winner] < values[name]]
        if vantage == "home-pooled":
            description = f"{winner} beats {len(beaten)} mainstream resolvers from home"
            paper = "outperforms all mainstream resolvers (home)"
            measured = (f"{winner}={values[winner]:.1f} vs " + ", ".join(
                f"{name}={values[name]:.1f}" for name in beaten if name in medians
            )) if winner in medians else "no data"
        else:
            description = f"{winner} beats {', '.join(beaten)} from {vantage}"
            paper = "outperforms those mainstream resolvers"
            measured = (f"median {values[winner]:.1f} ms, beats {', '.join(beats)}" if beats
                        else "does not beat any")
        # Hostnames are no format fields: the text is built above, from the values.
        claims.append(_row(
            f"X1-{winner}", description, paper, "{measured}", values,
            lambda v: all(v[winner] < v[name] for name in beaten), measured=measured,
        ))
    return claims


def _maxima_claims(study: _Study) -> List[ClaimResult]:
    """X2-*: the largest per-resolver median per vantage: of the North
    American resolvers from home and Ohio (the Figure 1 context), of all
    from Frankfurt and Seoul (the cross-continent discussion)."""
    na_hostnames = {entry.hostname for entry in entries_by_region("NA")}
    claims, maxima = [], {}
    for place, vantage, key, hostnames in (
        ("ec2-ohio (NA resolvers)", "ec2-ohio", "ec2-ohio", na_hostnames),
        ("ec2-frankfurt (all resolvers)", "ec2-frankfurt", "ec2-frankfurt", None),
        ("ec2-seoul (all resolvers)", "ec2-seoul", "ec2-seoul", None),
        ("home devices (NA resolvers)", "home-pooled", "home", na_hostnames),
    ):
        worst, maxima[key] = max(
            ((name, ms) for name, ms in study.medians[vantage].items()
             if hostnames is None or name in hostnames),
            key=lambda item: item[1], default=("none", nan),
        )
        values = {"max_ms": maxima[key]}
        if key == "home":
            # Home adds access latency: its maximum tops Ohio's.
            values["ohio_max_ms"] = maxima["ec2-ohio"]
        paper_max = PAPER_VALUES[f"max_median.{key}"]
        claims.append(_row(
            f"X2-{key}", f"max per-resolver median from {place}", f"{paper_max:.0f} ms",
            "{max_ms:.0f} ms ({worst})", values,
            lambda v: 0.33 * paper_max <= v["max_ms"] <= 3.0 * paper_max
            and v["max_ms"] > v.get("ohio_max_ms", -inf),
            paper={"max_ms": paper_max}, worst=worst,
        ))
    return claims


def _table_claims(study: _Study) -> List[ClaimResult]:
    """T2-*, T3-*: Tables 2 and 3's shape, their rows, and two of Table 3's
    resolvers by name."""
    shapes, counts = [], []
    for table_id, near, far, near_max, paper_rows, min_overlap in (
        ("T2", "ec2-seoul", "ec2-frankfurt", 150.0, PAPER_VALUES["table2"], 2),
        ("T3", "ec2-frankfurt", "ec2-seoul", inf, PAPER_VALUES["table3"], 0),
    ):
        rows = study.deltas[table_id]
        shapes.append(_row(
            f"{table_id}-shape", f"{table_id}: every listed resolver is faster from {near} than {far}",
            "local vantage point always faster", "{rows_text}", {"rows": len(rows), "shaped": sum(
                # Several times faster locally, and far from remote.
                d.near_median_ms < d.far_median_ms and d.ratio > 2.0
                and d.near_median_ms < near_max and d.far_median_ms > 250.0 for d in rows
            )}, lambda v: 0 < v["rows"] == v["shaped"],
            rows_text="; ".join(f"{d.resolver} {d.near_median_ms:.0f}->{d.far_median_ms:.0f}"
                                for d in rows),
        ))
        overlap = [d.resolver for d in rows if d.resolver in {row[0] for row in paper_rows}]
        counts.append(_row(
            f"{table_id}-rows", f"{table_id}: five resolvers listed"
            + (f", at least {min_overlap} of them the paper's" if min_overlap else ""),
            f"{len(paper_rows)} listed", "{rows} listed, the paper's: {names}",
            {"rows": len(rows), "overlap": len(overlap)},
            lambda v: v["rows"] == 5 and v["overlap"] >= min_overlap,
            names=", ".join(overlap) or "none",
        ))
    # ffmuc is slow even locally (processing, not distance); dns0.eu is EU
    # anycast without Asian sites, so fast locally and slow from Seoul.
    paper = {name: {"frankfurt_ms": near, "seoul_ms": far}
             for name, near, far in PAPER_VALUES["table3"]}
    resolvers, text = [], "{frankfurt_ms:.0f} / {seoul_ms:.0f} ms"
    for resolver, band, local_ok, remote_min in (
        ("doh.ffmuc.net", "40-140", lambda ms: 40.0 <= ms <= 140.0, 350.0),
        ("dns0.eu", "under 40", lambda ms: ms < 40.0, 250.0),
    ):
        resolvers.append(_row(
            f"T3-{resolver}", f"T3: {resolver} {band} ms from Frankfurt, over {remote_min:.0f} from Seoul",
            text.format(**paper[resolver]), text,
            {"frankfurt_ms": study.medians["ec2-frankfurt"].get(resolver, nan),
             "seoul_ms": study.medians["ec2-seoul"].get(resolver, nan)},
            lambda v: local_ok(v["frankfurt_ms"]) and v["seoul_ms"] > remote_min,
            paper=paper[resolver],
        ))
    return shapes + counts + resolvers


def _figure_claims(study: _Study) -> List[ClaimResult]:
    """F1-*: Figure 1's ec2-ohio ranking, its groups, ODoH and the pings;
    F2-F4: Figures 2-4's panels, read from the medians map."""
    ohio_rows = [row for row in study.figures["figure1"]["ec2-ohio"] if row.dns_stats]
    rank = {row.resolver: place for place, row in enumerate(ohio_rows, 1)}
    ahead = (("dns9.quad9.net", "dns.google"), ("ordns.he.net", "dns.google"),
             ("freedns.controld.com", "dns.google"),
             ("freedns.controld.com", "security.cloudflare-dns.com"))
    at = {name: f"#{rank.get(name, '-')}" for pair in ahead for name in pair}
    odoh = "odoh-target.alekberg.net"
    pinged = [row for row in ohio_rows if row.ping_stats]
    medians, ohio, home = study.medians, study.medians["ec2-ohio"], study.medians["home-pooled"]
    slowest = max(
        (medians[vantage].get(name, inf), name, vantage) for vantage in EC2_VANTAGE_NAMES
        for name in ("dns.google", "security.cloudflare-dns.com")
    )
    # West-coast deployments are already ~50 ms from Ohio: 1.8x is conservative.
    spans = [
        (medians[far][name], ohio[name]) for far in ("ec2-frankfurt", "ec2-seoul")
        for name in UNICAST_NA if name in medians[far] and name in ohio
    ]
    eu_unicast = [e.hostname for e in entries_by_region("EU") if not e.anycast and not e.mainstream]
    europe = _local_edge(medians, eu_unicast, "ec2-frankfurt", ("ec2-seoul", "ec2-ohio"))
    europe["references"] = float(all(name in medians["ec2-frankfurt"]
                                      for name in ("ordns.he.net", "dns.google")))
    asia_unicast = [e.hostname for e in entries_by_region("AS") if not e.anycast]
    # Mumbai is about as far from Seoul as from Frankfurt: no local edge to show.
    east_asia = [name for name in asia_unicast if name != "dns.therifleman.name"]
    return [
        _row("F1-order", "Figure 1: Quad9, he.net, ControlD ahead of Google; ControlD ahead of "
             "Cloudflare (ec2-ohio)", "Quad9 / he.net / ControlD cluster leads",
             "{ranks}", {name: rank.get(name, nan) for name in at},
             lambda v: all(v[fast] < v[slow] for fast, slow in ahead),
             ranks=f"{at['dns9.quad9.net']}, {at['ordns.he.net']}, {at['freedns.controld.com']} vs "
             f"Google {at['dns.google']}, Cloudflare {at['security.cloudflare-dns.com']}"),
        _row("F1-groups", "Figure 1: mainstream median beats non-mainstream (NA, ec2-ohio)",
             "mainstream resolvers cluster at the top", _GROUPS,
             {"mainstream_ms": _upper_median(
                 [row.dns_stats.median for row in ohio_rows if row.mainstream]),
              "non_mainstream_ms": _upper_median(
                  [row.dns_stats.median for row in ohio_rows if not row.mainstream])},
             lambda v: v["mainstream_ms"] < v["non_mainstream_ms"]),
        _row("F1-odoh", f"Figure 1: {odoh} in the slower half (relay penalty)",
             "ODoH targets sit at the bottom", "#{at} of {ranked}",
             {"rank": rank.get(odoh, nan), "ranked": len(rank)},
             lambda v: v["rank"] > v["ranked"] // 2, at=rank.get(odoh, "-")),
        _row("F1-ping", "Figure 1: ping median below the DoH median for every resolver",
             "handshakes dominate response time", "{below}/{pinged} resolvers",
             {"below": sum(row.ping_stats.median < row.dns_stats.median for row in pinged),
              "pinged": len(pinged)}, lambda v: 0 < v["pinged"] == v["below"]),
        _row("F2-anycast", "Figure 2: Google and Cloudflare under 80 ms from every EC2 vantage",
             "mainstream anycast fast everywhere", "slowest {slowest_ms:.0f} ms ({name}, {vantage})",
             {"slowest_ms": slowest[0]}, lambda v: v["slowest_ms"] < 80.0,
             name=slowest[1], vantage=slowest[2]),
        _row("F2-unicast", "Figure 2: NA unicast over 1.8x Ohio's median from Frankfurt and Seoul",
             "unicast degrades from afar", "smallest ratio {smallest_ratio:.2f} ({pairs}/6 pairs)",
             {"smallest_ratio": min((far / near for far, near in spans), default=nan),
              "pairs": len(spans), "held": sum(far > 1.8 * near for far, near in spans)},
             lambda v: v["pairs"] == v["held"] == 6),
        _row("F2-home", "Figure 2: pooled home medians within 0-60 ms of Ohio's",
             "home and Ohio almost identical", "median premium {premium_ms:.1f} ms",
             {"premium_ms": _upper_median([home[name] - ohio[name] for name in
                                           region_panel_hostnames("NA")
                                           if name in home and name in ohio]),
              "pooled": float(set(study.figures["figure2"]) == {"home-pooled", *EC2_VANTAGE_NAMES})},
             lambda v: v["pooled"] == 1.0 and 0.0 < v["premium_ms"] < 60.0),
        _row("F3-local", "Figure 3: EU unicast faster from Frankfurt than Seoul and Ohio; "
             "reference rows shown", "EU resolvers consistent from Frankfurt",
             "{held}/{compared} comparisons" + ("" if europe["references"] else ", references missing"),
             europe, lambda v: 0 < v["compared"] == v["held"] and v["references"] == 1.0),
        _row("F4-local", "Figure 4: East-Asian unicast faster from Seoul than Frankfurt and Ohio",
             "Asian resolvers fast from Seoul only", "{held}/{compared} comparisons",
             _local_edge(medians, east_asia, "ec2-seoul", ("ec2-frankfurt", "ec2-ohio")),
             lambda v: 0 < v["compared"] == v["held"]),
        _row("F4-home", "Figure 4: every Asian unicast resolver over 150 ms from home",
             "slow from the U.S. home networks", "fastest {fastest_ms:.0f} ms",
             {"fastest_ms": min((home[name] for name in asia_unicast if name in home), default=nan)},
             lambda v: v["fastest_ms"] > 150.0),
    ]


def _correlation_claims(study: _Study) -> List[ClaimResult]:
    """C1-*: ping against response time (section 3.1), per EC2 vantage, and
    ffmuc's frontend as the outlier latency does not explain."""
    claims: List[ClaimResult] = []
    outliers: List[str] = []
    for vantage, outcome in latency_correlations_from_records(study.table, EC2_VANTAGE_NAMES).items():
        try:
            if isinstance(outcome, AnalysisError):
                raise outcome
            values = {"pearson": outcome.pearson_r, "spearman": outcome.spearman_rho,
                      "dns_ping": outcome.median_rtt_multiple}
            if vantage == "ec2-frankfurt":
                outliers = [name for name, _ping, _dns in outcome.outliers()]
        except AnalysisError as exc:
            values = dict.fromkeys(("pearson", "spearman", "dns_ping"), nan)
            text, error = "{error}", str(exc)
        else:
            text, error = "pearson {pearson:.3f}, spearman {spearman:.3f}, DNS/ping x{dns_ping:.2f}", ""
        claims.append(_row(
            f"C1-{vantage}", f"DNS vs ping medians: r and rho over 0.8, DNS/ping in [2.5, 5] "
            f"({vantage})", "latency explains response time", text, values,
            # Fresh DoH is about three round trips plus processing.
            lambda v: v["pearson"] > 0.8 and v["spearman"] > 0.8 and 2.5 <= v["dns_ping"] <= 5.0,
            error=error,
        ))
    claims.append(_row(
        "C1-outlier", "doh.ffmuc.net's DNS/ping is an outlier (ec2-frankfurt)",
        "slow frontends are not explained by latency", "{names}",
        {"ffmuc_outlier": float("doh.ffmuc.net" in outliers)},
        lambda v: v["ffmuc_outlier"] == 1.0, names=", ".join(outliers) or "none",
    ))
    return claims


# -- related work: transports and sessions -------------------------------------------


def transport_claims(study: _Study) -> List[ClaimResult]:
    """The related work's transport and session claims: A1 connection
    reuse, A2 anycast, A3 the TLS x HTTP handshake, A4 the resolver cache,
    A6 DoQ against DoH.  Each group measures a tiny world of its own, built
    here and nowhere else in the claim table: a fixed seed, one or two
    resolvers, and for A4 caches left cold.  None on a caller's store."""
    if not study.own_study:
        return []
    claims: List[ClaimResult] = []
    for rows, seed, catalog, warm_caches in (
        (_reuse_claims, 21, [e for e in CATALOG if e.hostname == "dns.brahma.world"], True),
        (_anycast_claims, 31, [_ablation_entry("unicast.ablation.test", ("frankfurt",)),
                               _ablation_entry("anycast.ablation.test",
                                               ("frankfurt", "chicago", "seoul"))], True),
        (_handshake_claims, 41, [_ablation_entry("matrix.ablation.test", ("frankfurt",))], True),
        (_cache_claims, 51, [_ablation_entry("cache.ablation.test", ("frankfurt",))], False),
        (_doq_claims, 81, [replace(e, reliability="rock") for e in CATALOG
                           if e.hostname == "dns.adguard.com"], True),
    ):
        claims += rows(build_world(seed=seed, catalog=catalog, warm_caches=warm_caches))
    return claims


def _series(
    world: World,
    resolver: str,
    domains: Sequence[str],
    seed: int,
    transport: str = "doh",
    vantage: str = "ec2-ohio",
    config: Optional[ProbeConfig] = None,
    session: SessionTerms = COLD_TERMS,
) -> Tuple[float, List[ProbeOutcome]]:
    """One probe's queries, each run to completion before the next, then
    its close: the median of the successful durations (NaN, which no bound
    holds for, when none succeeded) and every outcome."""
    probe = make_probe(
        transport, world.vantage(vantage).host, world.deployment(resolver).service_ip,
        resolver, config, rng=random.Random(seed), session=session,
    )
    outcomes: List[ProbeOutcome] = []
    for domain in domains:
        probe.query(domain, outcomes.append)
        world.network.run()
    probe.close()
    world.network.run()
    return _median([outcome.duration_ms for outcome in outcomes if outcome.success]), outcomes


def _rtt(world: World, resolver: str) -> float:
    return world.network.rtt_between(
        world.vantage("ec2-ohio").host, world.deployment(resolver).service_ip
    )


def _rtt_claim(
    claim_id: str, description: str, cites: str, median_ms: float, rtt: float,
    multiple: float, tolerance: float,
) -> ClaimResult:
    """A median ``multiple`` round trips long, give or take ``tolerance``
    round trips."""
    return _row(
        claim_id, description, f"~{multiple:g}x RTT",
        "{median_ms:.1f} ms = {rtts:.2f}x RTT ({rtt_ms:.1f} ms)",
        {"median_ms": median_ms, "rtt_ms": rtt, "rtts": median_ms / rtt},
        lambda v: abs(v["rtts"] - multiple) <= tolerance, cites,
    )


def _ablation_entry(hostname: str, cities: Tuple[str, ...]) -> CatalogEntry:
    return CatalogEntry(
        hostname=hostname, operator="ablation", region="EU", cities=cities,
        perf="fast", reliability="rock",
    )


def _reuse_claims(world: World) -> List[ClaimResult]:
    """A1: each client policy saves a handshake round trip, from a fresh
    TLS 1.2 connection (~4x RTT) down to a kept one (~1x)."""
    resolver = world.catalog[0].hostname
    rtt = _rtt(world, resolver)
    early = SessionTerms(session_cache=SessionCache(), enable_early_data=True)
    claims, medians = [], {}
    for name, policy, multiple, config, session in (
        ("fresh-1.3", "a fresh TLS 1.3 connection", 3.0, ProbeConfig(), COLD_TERMS),
        ("fresh-1.2", "a fresh TLS 1.2 connection", 4.0, ProbeConfig(tls_versions=("1.2",)),
         COLD_TERMS),
        ("0rtt", "TLS 1.3 0-RTT resumption", 2.0, ProbeConfig(), early),
        ("reuse", "a kept h2 connection", 1.0, ProbeConfig(reuse_connections=True), COLD_TERMS),
    ):
        medians[name], _ = _series(
            world, resolver, ["google.com"] * 15, 9, config=config, session=session
        )
        claims.append(_rtt_claim(
            f"A1-{name}", f"DoH over {policy}: ~{multiple:g}x RTT, within 20% "
            f"({resolver} from ec2-ohio)", HOUNSEL_2020, medians[name], rtt, multiple,
            0.2 * multiple,
        ))
    order = ("reuse", "0rtt", "fresh-1.3", "fresh-1.2")
    claims.append(_row(
        "A1-order", "reuse < 0-RTT < fresh TLS 1.3 < fresh TLS 1.2", "reuse amortises the handshake",
        "{order} ms", medians, lambda v: all(v[low] < v[high] for low, high in zip(order, order[1:])),
        HOUNSEL_2020, order=" < ".join(f"{medians[name]:.1f}" for name in order),
    ))
    return claims


def _anycast_claims(world: World) -> List[ClaimResult]:
    """A2: one resolver deployed unicast (Frankfurt) and anycast (Frankfurt,
    Chicago, Seoul): equal locally, anycast far faster from afar."""
    medians = {
        vantage: dict(zip(("unicast_ms", "anycast_ms"), (
            _series(world, entry.hostname, ["google.com"] * 9, 5, vantage=vantage)[0]
            for entry in world.catalog
        )))
        for vantage in ("ec2-ohio", "ec2-frankfurt", "ec2-seoul")
    }
    text = "unicast {unicast_ms:.1f} ms, anycast {anycast_ms:.1f} ms"
    return [_row(
        "A2-local", "the same resolver from ec2-frankfurt: anycast within 30% of unicast",
        "deployment matters only with distance", text, medians["ec2-frankfurt"],
        lambda v: abs(v["anycast_ms"] - v["unicast_ms"]) <= 0.3 * abs(v["unicast_ms"]), HOUNSEL_2020,
    )] + [_row(
        f"A2-{vantage}", f"anycast over 4x faster than unicast Frankfurt ({vantage})",
        "distance to the nearest site sets the time", text, medians[vantage],
        lambda v: v["anycast_ms"] * 4 < v["unicast_ms"], HOUNSEL_2020,
    ) for vantage in ("ec2-ohio", "ec2-seoul")]


def _handshake_claims(world: World) -> List[ClaimResult]:
    """A3: the TLS version costs a round trip (1.3 ~3x RTT, 1.2 ~4x); the
    HTTP version costs none."""
    resolver = world.catalog[0].hostname
    rtt = _rtt(world, resolver)
    claims, medians, counts = [], {}, {"negotiated": 0, "queries": 0}
    for tls, multiple in (("1.3", 3.0), ("1.2", 4.0)):
        for http in ("h2", "http/1.1"):
            config = ProbeConfig(tls_versions=(tls,), http_versions=(http,))
            medians[tls, http], outcomes = _series(
                world, resolver, ["google.com"] * 9, 3, config=config
            )
            counts["queries"] += len(outcomes)
            counts["negotiated"] += sum(
                outcome.success and outcome.tls_version == tls and outcome.http_version == http
                for outcome in outcomes
            )
            claims.append(_rtt_claim(
                f"A3-{tls}-{http}", f"fresh DoH on TLS {tls} + {http}: ~{multiple:g}x RTT, "
                "within 15%", BOETTGER_2019, medians[tls, http], rtt, multiple, 0.15 * multiple,
            ))
    return claims + [
        _row("A3-http", "the HTTP version is round-trip neutral: TLS 1.3 h2 within 10% of HTTP/1.1",
             "one exchange once connected", "h2 {h2_ms:.1f} ms, HTTP/1.1 {http1_ms:.1f} ms",
             {"h2_ms": medians["1.3", "h2"], "http1_ms": medians["1.3", "http/1.1"]},
             lambda v: abs(v["h2_ms"] - v["http1_ms"]) <= 0.1 * abs(v["http1_ms"]), BOETTGER_2019),
        _row("A3-negotiated", "every matrix query succeeds on the TLS and HTTP versions asked",
             "each cell one version pair", "{negotiated}/{queries} queries", counts,
             lambda v: 0 < v["queries"] == v["negotiated"], BOETTGER_2019),
    ]


def _cache_claims(world: World) -> List[ClaimResult]:
    """A4: what measuring popular (cached) names hides: a cold query pays
    the resolver's walk to root, TLD and authoritative servers."""
    resolver = world.catalog[0].hostname
    # One query per probe; a failed one reads NaN, which every bound below fails.
    cold, warm, cold_cname = (
        _series(world, resolver, [domain], 2, vantage="ec2-frankfurt")[0]
        for domain in ("google.com", "google.com", "wikipedia.com")
    )
    site = world.deployment(resolver).sites[0]
    return [
        _row("A4-walk", "a cold google.com (root -> com -> auth walk) over 1.5x the cache hit",
             "a miss pays the upstream walk", "cold {cold_ms:.1f} ms, warm {warm_ms:.1f} ms",
             {"cold_ms": cold, "warm_ms": warm}, lambda v: v["cold_ms"] > v["warm_ms"] * 1.5,
             HOUNSEL_2020),
        _row("A4-cname", "a cold wikipedia.com (walk + glueless CNAME) slower than the walk",
             "a glueless CNAME costs another walk", "{cold_cname_ms:.1f} ms vs {cold_ms:.1f} ms",
             {"cold_cname_ms": cold_cname, "cold_ms": cold},
             lambda v: v["cold_cname_ms"] > v["cold_ms"], HOUNSEL_2020),
        _row("A4-hit", "a cache hit is transport alone: under 25 ms (ec2-frankfurt, local)",
             "popular names are cached",
             "{warm_ms:.1f} ms ({upstream_queries} upstream queries, hit rate {hit_rate:.0%})",
             {"warm_ms": warm, "upstream_queries": site.engine.total_upstream_queries,
              "hit_rate": site.cache.stats.hit_rate}, lambda v: v["warm_ms"] < 25.0, HOUNSEL_2020),
    ]


def _doq_claims(world: World) -> List[ClaimResult]:
    """A6: DoQ folds transport and TLS into one round trip: fresh DoQ ~2x
    RTT against DoH's ~3x, a kept or 0-RTT DoQ connection ~1x."""
    resolver = world.catalog[0].hostname
    rtt = _rtt(world, resolver)
    queries = ["google.com"] * 11
    doh, doq, zero_rtt, kept = (
        _series(world, resolver, queries, 1, transport=transport, config=config,
                session=session)[0]
        for transport, config, session in (
            ("doh", None, COLD_TERMS),
            ("doq", None, COLD_TERMS),
            ("doq", None, SessionTerms(session_cache=SessionCache())),
            ("doq", ProbeConfig(reuse_connections=True), COLD_TERMS),
        )
    )
    return [
        _rtt_claim("A6-doq-fresh", "fresh DoQ: ~2x RTT, within 0.65 RTT (ec2-ohio)",
                   KOSEK_2023, doq, rtt, 2.0, 0.65),
        _rtt_claim("A6-doh-fresh", "fresh DoH (TLS 1.3): ~3x RTT, within 0.8 RTT",
                   KOSEK_2023, doh, rtt, 3.0, 0.8),
        _row("A6-saved", "fresh DoQ over 0.7 RTT faster than fresh DoH", "one round trip saved",
             "{rtts_saved:.2f}x RTT saved ({doq_ms:.1f} vs {doh_ms:.1f} ms)",
             {"doq_ms": doq, "doh_ms": doh, "rtt_ms": rtt, "rtts_saved": (doh - doq) / rtt},
             lambda v: v["doq_ms"] < v["doh_ms"] - 0.7 * v["rtt_ms"], KOSEK_2023),
        _rtt_claim("A6-doq-reuse", "DoQ on a kept connection: ~1x RTT, within 0.5 RTT",
                   KOSEK_2023, kept, rtt, 1.0, 0.5),
        # The 0-RTT series mixes the first (full) handshake with resumed
        # ones; its median still sits at or below the fresh series.
        _row("A6-0rtt", "DoQ 0-RTT resumption at most 1 ms over fresh DoQ", "0-RTT saves more",
             "{zero_rtt_ms:.1f} ms vs {doq_ms:.1f} ms", {"zero_rtt_ms": zero_rtt, "doq_ms": doq},
             lambda v: v["zero_rtt_ms"] <= v["doq_ms"] + 1.0, KOSEK_2023),
    ]


#: The claim table, in print order: (section title, the header of its
#: reference column, the families whose rows it holds).  A family reads the
#: report's inputs and returns its rows; one that reads a campaign the report
#: did not run (FAULT-*, the related work's worlds) returns none.
SECTIONS = (
    ("", "paper", (
        _availability_claims, _fault_claims, _vantage_claims, _local_winner_claims,
        _maxima_claims, _table_claims, _figure_claims, _correlation_claims,
    )),
    (TRANSPORTS_SECTION, "related work", (transport_claims,)),
)
