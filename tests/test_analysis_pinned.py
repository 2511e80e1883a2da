"""The analysis text of one small study, pinned by its SHA-256.

Every claim, table and figure the CLI prints is a function of the same
records.  This test renders all of it for a mini-catalog study (home, EC2
and one monthly re-check campaign), a short fault-injected campaign and a
one-round session matrix, and holds the digest of the text.  A change to
how analysis reads records — grouping, ordering, tie-breaking, medians —
cannot move a byte of what ``report``, ``report --phases``, ``figure
--csv``, ``correlate``, ``drift`` or ``sessions`` prints without failing
here.  Same seeds, so the digest is the same on every host.
"""

from __future__ import annotations

import hashlib

from repro.analysis.availability import (
    availability_report,
    error_class_shares,
    failure_pattern_consistency,
    per_resolver_error_breakdown,
    retry_burden,
)
from repro.analysis.correlation import latency_correlations_from_records
from repro.analysis.export import figure_rows_to_csv
from repro.analysis.figures import paper_figure
from repro.analysis.longitudinal import drift_reports_from_records
from repro.analysis.phases import (
    error_phases,
    phase_breakdowns,
    phase_deltas,
    render_error_phases,
    render_phase_delta_table,
    render_phase_table,
)
from repro.analysis.sessions import session_report
from repro.catalog.browsers import mainstream_hostnames
from repro.catalog.resolvers import CATALOG
from repro.experiments.campaigns import (
    HOME_VANTAGE_NAMES,
    fault_study_legs,
    session_study_legs,
    study_legs,
)
from repro.experiments.paper import generate_report
from repro.parallel import run_campaigns
from tests.conftest import MINI_CATALOG_HOSTNAMES

PINNED_SHA256 = "ecf7cc7392c5012d9857ad4ffa1a16075e924b0a13db8d9ae4ad6a6d8ef60ece"


def pinned_text() -> str:
    study = run_campaigns(
        study_legs(
            home_rounds=2, ec2_rounds=2, recheck_months=("feb",),
            target_hostnames=MINI_CATALOG_HOSTNAMES,
        ),
        world_seed=0, shards=1,
    ).store
    fault_legs, fault_plan = fault_study_legs(
        rounds=2, target_hostnames=MINI_CATALOG_HOSTNAMES
    )
    faulted = run_campaigns(fault_legs, world_seed=0, fault_plan=fault_plan, shards=1)
    sessions = {
        name: run_campaigns([leg], world_seed=0, shards=1)
        for name, leg in session_study_legs(
            rounds=1, target_hostnames=("dns.adguard.com", "dns.nextdns.io"),
            vantage_names=("ec2-ohio", "ec2-seoul"),
        ).items()
    }
    out = []

    report = generate_report(store=study)
    out.append(report.describe())
    out.extend(report.rendered_tables[name] for name in sorted(report.rendered_tables))
    out.extend(report.rendered_figures[name] for name in sorted(report.rendered_figures))

    # `report --phases`, with the CLI's arguments.
    unicast_eu = [
        e.hostname for e in CATALOG
        if not e.mainstream and not e.anycast and e.region == "EU"
    ]
    out.append(render_phase_delta_table(
        phase_deltas(study, unicast_eu, "ec2-frankfurt", "ec2-seoul"), title="phases"
    ))
    out.append(render_error_phases(error_phases(study)))
    out.append(render_phase_table(phase_breakdowns(study)))

    for figure in ("figure1", "figure2", "figure3", "figure4"):
        panels = paper_figure(
            study, figure, mainstream_hostnames(), home_vantages=HOME_VANTAGE_NAMES
        )
        out.append(figure_rows_to_csv(panels))

    # `correlate` and `drift`, as the CLI prints them.
    for vantage, outcome in latency_correlations_from_records(study).items():
        out.append(f"{vantage}: {outcome}" if isinstance(outcome, Exception)
                   else outcome.describe())
    out.extend(report.describe() for report in drift_reports_from_records(study))

    out.append(session_report(sessions))
    out.append(session_report(sessions, per_vantage=True))

    fault_store = faulted.store
    out.append(availability_report(fault_store).describe())
    out.append(repr(retry_burden(fault_store)))
    out.append(repr(error_class_shares(fault_store)))
    out.append(repr(failure_pattern_consistency(fault_store)))
    out.extend(p.describe() for p in per_resolver_error_breakdown(fault_store).values())
    out.append(render_error_phases(error_phases(fault_store)))
    return "\n".join(out) + "\n"


def test_analysis_output_is_pinned():
    text = pinned_text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_SHA256, text
