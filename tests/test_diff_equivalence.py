"""Differential-testing engine: golden masters, taxonomy, reproducibility.

Three pillars:

* **Clean-world agreement** — when every deployment resolves from the
  same zone data, the differ must report zero content disagreements;
  dead or timed-out resolvers land in ``unanswered``, never ``disagree``.
* **Injected faults classify** — each answer-fault kind maps onto the
  documented taxonomy class, and the diffrepro re-query pass labels the
  injected (deterministic) faults reproducible.
* **Golden masters** — the rendered report and the per-cell diff-record
  JSONL are byte-identical across worker counts and across record
  sources (in-RAM ResultStore vs on-disk warehouse) for a fixed seed.
"""

from __future__ import annotations

import os

import pytest

from repro.core.runner import Campaign
from repro.diff import DiffRecord, build_diff_report, verify_reproducibility
from repro.diff.records import STATUS_DISAGREE, STATUS_UNANSWERED
from repro.dnswire.canonical import (
    CLASS_ANSWER_SET_MISMATCH,
    CLASS_NXDOMAIN_VS_NOERROR,
    CLASS_RCODE_MISMATCH,
    CLASS_TRUNCATION,
    CLASS_TTL_BAND_DRIFT,
    CLASS_UNANSWERED,
)
from repro.errors import CampaignConfigError, DiffInputError
from repro.experiments.campaigns import EC2_VANTAGE_NAMES, diff_campaign_config
from repro.faults import FaultEvent, FaultKind, FaultPlan, inject_faults
from repro.parallel import run_campaigns

from tests.conftest import MINI_CATALOG_HOSTNAMES, make_mini_world

MINI = tuple(MINI_CATALOG_HOSTNAMES)

#: Worker count for the pooled side (CI re-runs with REPRO_TEST_WORKERS=4).
POOLED_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

#: Resolvers with negligible failure probability in the mini catalog —
#: fault targets, so every injected disagreement is observed, not lost
#: to an unlucky SERVFAIL roll.
STABLE = (
    "dns.google",
    "dns.quad9.net",
    "security.cloudflare-dns.com",
    "ordns.he.net",
    "dns.alidns.com",
)

DEAD_RESOLVER = "dns.pumplex.com"  # never comes up in the mini catalog

#: How long the answer faults last: over the two-round campaign and the
#: three-round re-query campaign that verifies its disagreements.
HORIZON_MS = diff_campaign_config(rounds=3).schedule.horizon_ms


def answer_plan(hostnames=STABLE, domains=None, seed=7):
    domains = diff_campaign_config().domains if domains is None else domains
    return FaultPlan.answer_faults(hostnames, domains, HORIZON_MS, seed=seed)


def _mini_diff_campaign(config, fault_plan=None, vantages=EC2_VANTAGE_NAMES, targets=MINI):
    """One serial differencing campaign on a fresh (faulted) mini world."""
    world = make_mini_world(seed=5)
    if fault_plan is not None:
        inject_faults(
            world.network,
            [world.deployments[hostname] for hostname in MINI],
            fault_plan,
        )
    return Campaign(
        network=world.network,
        vantages=[world.vantage(name) for name in vantages],
        targets=world.targets(list(targets)),
        config=config,
    ).run()


# ---------------------------------------------------------------------------
# Clean-world agreement
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def clean_report():
    return build_diff_report(_mini_diff_campaign(diff_campaign_config(rounds=2, seed=5)))


class TestCleanWorldAgreement:
    def test_zero_content_disagreements(self, clean_report):
        assert clean_report.status_counts()[STATUS_DISAGREE] == 0

    def test_every_cell_covers_every_resolver(self, clean_report):
        # 2 rounds x 3 vantages x 3 study domains = 18 cells x 11 resolvers.
        assert clean_report.cell_count() == 18
        assert len(clean_report.records) == 18 * len(MINI)

    def test_dead_resolver_is_unanswered_not_disagreeing(self, clean_report):
        rows = {row.resolver: row for row in clean_report.per_resolver_rows()}
        dead = rows[DEAD_RESOLVER]
        assert dead.unanswered == dead.cells
        assert dead.disagree == 0
        assert dead.disagreement_rate == 0.0

    def test_unanswered_cells_carry_taxonomy_class(self, clean_report):
        for record in clean_report.records:
            if record.status == STATUS_UNANSWERED:
                assert record.classification == CLASS_UNANSWERED
                assert record.observed is None

    def test_report_is_deterministic_for_a_fixed_seed(self, clean_report):
        again = build_diff_report(
            _mini_diff_campaign(diff_campaign_config(rounds=2, seed=5))
        )
        assert again.render() == clean_report.render()
        assert again.to_jsonl() == clean_report.to_jsonl()

    def test_field_shares_all_zero_without_disagreements(self, clean_report):
        assert all(count == 0 for _f, count, _s in clean_report.field_mismatch_shares())


# ---------------------------------------------------------------------------
# Injected faults classify into the documented taxonomy
# ---------------------------------------------------------------------------


EXPECTED_CLASS = {
    "nxdomain": CLASS_NXDOMAIN_VS_NOERROR,
    "servfail": CLASS_RCODE_MISMATCH,
    "rewrite": CLASS_ANSWER_SET_MISMATCH,
    "ttl": CLASS_TTL_BAND_DRIFT,
    "truncate": CLASS_TRUNCATION,
}


@pytest.fixture(scope="module")
def faulted():
    """The faulted report, labelled from a second campaign: three rounds of
    re-queries of the disagreeing cells on a fresh world with the same plan."""
    plan = answer_plan()
    report = build_diff_report(
        _mini_diff_campaign(diff_campaign_config(rounds=2, seed=5), plan)
    )
    disagreements = report.disagreements()
    requeries = _mini_diff_campaign(
        diff_campaign_config(
            rounds=3, seed=5, domains=sorted({r.domain for r in disagreements})
        ),
        plan,
        vantages=sorted({r.vantage for r in disagreements}),
        targets=sorted({r.resolver for r in disagreements}),
    )
    verify_reproducibility(report, requeries, attempts=3)
    return plan, report


class TestInjectedFaultTaxonomy:
    def test_one_fault_per_kind_was_planned(self, faulted):
        plan, _report = faulted
        assert sorted(event.kind.value for event in plan) == sorted(EXPECTED_CLASS)

    def test_each_fault_kind_classifies_to_its_taxonomy_class(self, faulted):
        plan, report = faulted
        by_cell = {}
        for record in report.disagreements():
            by_cell.setdefault((record.resolver, record.domain), set()).add(
                record.classification
            )
        for event in plan:
            cell = (event.hostname, event.domain)
            assert by_cell.get(cell) == {EXPECTED_CLASS[event.kind.value]}, (
                f"fault {event.kind.value} on {cell} misclassified: {by_cell.get(cell)}"
            )

    def test_no_disagreements_outside_faulted_cells(self, faulted):
        plan, report = faulted
        faulted_cells = {(event.hostname, event.domain) for event in plan}
        for record in report.disagreements():
            assert (record.resolver, record.domain) in faulted_cells

    def test_requery_labels_injected_faults_reproducible(self, faulted):
        """The fault rewrites every response, so all re-queries that got
        an answer disagree again -> reproducible (a cell stays unlabeled
        only if a re-query attempt itself went unanswered)."""
        _plan, report = faulted
        verdicts = [
            record.reproducible
            for record in report.disagreements()
            if record.verify_disagreements == record.verify_attempts
        ]
        assert verdicts and all(verdicts)

    def test_taxonomy_table_counts_reproducible_verdicts(self, faulted):
        _plan, report = faulted
        counts = {label: (count, repro, transient, unverified)
                  for label, count, repro, transient, unverified
                  in report.classification_counts()}
        for kind, label in EXPECTED_CLASS.items():
            count, repro, transient, _unverified = counts[label]
            assert count > 0, f"no {label} rows for injected {kind}"
            assert repro + transient == count


class TestRequeryCampaign:
    """``diff --verify`` re-queries the disagreements in a campaign of its own."""

    ARGV = ["diff", "--resolver", *STABLE, "--rounds", "2", "--seed", "5"]

    def _run(self, monkeypatch, tmp_path, *extra):
        import repro.cli as cli
        from repro.cli import main

        rounds = []
        run = cli.run_campaigns

        def counted(legs, *args, **kwargs):
            rounds.extend(config.schedule.rounds for config, _vantages, _targets in legs)
            return run(legs, *args, **kwargs)

        monkeypatch.setattr(cli, "run_campaigns", counted)
        cells = tmp_path / "cells.jsonl"
        assert main(self.ARGV + list(extra) + ["--output", str(cells)]) == 0
        records = [DiffRecord.parse_line(line) for line in cells.read_text().splitlines()]
        return rounds, [r for r in records if r.status == STATUS_DISAGREE]

    def test_faults_last_as_long_as_the_requeries(self, monkeypatch, tmp_path, capsys):
        # Eight re-query rounds run far past the two measured ones; a plan
        # over the measured rounds alone would read every fault transient.
        rounds, disagreements = self._run(
            monkeypatch, tmp_path, "--faults", "--verify", "8"
        )
        assert rounds == [2, 8]
        assert disagreements
        assert all(r.verify_disagreements == 8 for r in disagreements)
        assert all(r.reproducible for r in disagreements)

    def test_a_clean_run_starts_no_requery_campaign(self, monkeypatch, tmp_path, capsys):
        rounds, disagreements = self._run(monkeypatch, tmp_path, "--verify", "3")
        assert rounds == [2]
        assert disagreements == []


class TestAnswerFaultsInOnePlan:
    def test_plan_json_round_trip(self):
        plan = answer_plan(domains=["a.com", "b.com"], seed=3)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_restricted_to_drops_other_hosts(self):
        plan = answer_plan(domains=["a.com"], seed=3)
        kept = plan.restricted_to(STABLE[:1])
        assert all(event.hostname == STABLE[0] for event in kept)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent.from_dict(
                {"kind": "scramble", "hostname": "h", "domain": "d",
                 "start_ms": 0.0, "duration_ms": 1.0}
            )

    @pytest.mark.parametrize(
        "kind,domain", [(FaultKind.TTL, ""), (FaultKind.OUTAGE_DROP, "a.com")]
    )
    def test_a_domain_exactly_on_answer_kinds(self, kind, domain):
        with pytest.raises(CampaignConfigError):
            FaultEvent(kind, "h", 0.0, 1.0, domain=domain)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(CampaignConfigError, match="cannot host 10 answer faults"):
            FaultPlan.answer_faults(STABLE, ["a.com"], HORIZON_MS, per_kind=2)


# ---------------------------------------------------------------------------
# Input validation and record codec
# ---------------------------------------------------------------------------


class TestDiffInputs:
    def test_records_without_captures_are_rejected(self):
        from repro.experiments.campaigns import ec2_campaign_config

        world = make_mini_world(seed=5)
        store = Campaign(
            network=world.network,
            vantages=[world.vantage(EC2_VANTAGE_NAMES[0])],
            targets=world.targets([STABLE[0]]),
            config=ec2_campaign_config(rounds=1, seed=5),  # no capture
        ).run()
        with pytest.raises(DiffInputError):
            build_diff_report(store)

    def test_diff_record_jsonl_round_trip(self, clean_report):
        for record in clean_report.records[:20]:
            assert DiffRecord.parse_line(record.to_json()) == record


# ---------------------------------------------------------------------------
# Golden masters: worker counts and record sources
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestGoldenMasters:
    def test_report_byte_identical_serial_vs_pooled(self):
        plan = answer_plan()
        runs = [
            run_campaigns(
                [(
                    diff_campaign_config(rounds=2, seed=5),
                    EC2_VANTAGE_NAMES,
                    MINI,
                )],
                world_seed=0,
                workers=workers,
                fault_plan=plan,
            )
            for workers in (1, POOLED_WORKERS)
        ]
        reports = [build_diff_report(run.store.records) for run in runs]
        assert reports[0].render() == reports[1].render()
        assert reports[0].to_jsonl() == reports[1].to_jsonl()
        assert reports[0].status_counts()[STATUS_DISAGREE] > 0

    def test_report_byte_identical_classic_vs_warehouse(self, tmp_path):
        classic = run_campaigns(
            [(diff_campaign_config(rounds=2, seed=5), EC2_VANTAGE_NAMES, MINI)]
        )
        stored = run_campaigns(
            [(
                diff_campaign_config(rounds=2, seed=5),
                EC2_VANTAGE_NAMES,
                MINI,
            )],
            store_dir=str(tmp_path / "wh"),
            segment_records=64,
        )
        from_ram = build_diff_report(classic.store.records)
        from_disk = build_diff_report(stored.warehouse.iter_records())
        assert from_ram.render() == from_disk.render()
        assert from_ram.to_jsonl() == from_disk.to_jsonl()
