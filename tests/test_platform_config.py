"""Tests for the config-driven measurement service (Netrics-style campaign
files, run by ``measure --spec``)."""

import hashlib
import json

import pytest

from repro.catalog.resolvers import CATALOG
from repro.cli import main
from repro.core.platform import CampaignFile, select_targets
from repro.core.results import ResultStore
from repro.core.runner import CampaignConfig
from repro.core.scheduler import MS_PER_DAY, MS_PER_HOUR
from repro.errors import CampaignConfigError
from repro.experiments.campaigns import (
    diff_campaign_config,
    ec2_campaign_config,
    fault_campaign_config,
    home_campaign_config,
    monthly_recheck_config,
    sessions_campaign_config,
)
from repro.experiments.observatory import observer_campaign_configs
from repro.files import spec_from_table, spec_to_table
from repro.session import POLICY_PRESETS


def parse_file(table) -> CampaignFile:
    return spec_from_table(CampaignFile, table, CampaignConfigError, "campaign file")


def campaign_table(**campaign) -> dict:
    """A campaign file whose ``campaign`` table holds ``campaign``."""
    return {"campaign": {"name": "t", **campaign}}


class TestCampaignFileParsing:
    def test_minimal_file_gets_defaults(self):
        parsed = parse_file({"campaign": {"name": "t"}})
        assert parsed.campaign == CampaignConfig(name="t")
        assert parsed.vantages == ("ec2-ohio",)
        assert parsed.resolvers == "all"
        assert parsed.campaign.transports == ("doh",)
        assert parsed.campaign.session_policy.mode == "cold"
        assert parsed.campaign.ping is True

    def test_unknown_key_rejected(self):
        with pytest.raises(CampaignConfigError, match="unknown keys: resolverz"):
            parse_file({**campaign_table(), "resolverz": []})
        with pytest.raises(CampaignConfigError, match="'campaign' has unknown keys: rounds"):
            parse_file(campaign_table(rounds=3))

    def test_the_round_index_is_not_a_key(self):
        # A shard's first round index travels beside the config, not in it.
        with pytest.raises(
            CampaignConfigError, match="'schedule' has unknown keys: first_round_index"
        ):
            parse_file(campaign_table(
                schedule={"rounds": 3, "interval_ms": MS_PER_HOUR, "first_round_index": 3}
            ))

    def test_missing_or_blank_name_rejected(self):
        with pytest.raises(CampaignConfigError, match="missing keys: campaign"):
            parse_file({})
        with pytest.raises(CampaignConfigError, match="'campaign' is missing keys: name"):
            parse_file({"campaign": {}})
        with pytest.raises(CampaignConfigError, match="'name' must not be blank"):
            parse_file(campaign_table(name="  "))

    def test_bad_rounds_rejected(self):
        with pytest.raises(CampaignConfigError, match="at least one round"):
            parse_file(campaign_table(schedule={"rounds": 0, "interval_ms": 1.0}))

    def test_bad_method_rejected(self):
        with pytest.raises(CampaignConfigError, match="BREW"):
            parse_file(campaign_table(probe_config={"method": "BREW"}))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(campaign_table(name="file-test")))
        assert CampaignFile.load(path).campaign.name == "file-test"

    def test_load_rejects_non_object(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CampaignConfigError):
            CampaignFile.load(path)

    @pytest.mark.parametrize(
        "table, message",
        [
            # A bare string was split into its characters: ten one-letter
            # domains, or vantages named "e", "c", "2", ...
            (campaign_table(domains="google.com"),
             "'domains' must be a non-empty list of names"),
            ({**campaign_table(), "vantages": "ec2-ohio"},
             "'vantages' must be a non-empty list of names"),
            ({**campaign_table(), "vantages": []},
             "'vantages' must be a non-empty list of names"),
            (campaign_table(domains=["google.com", 7]),
             "'domains' must be a non-empty list of names"),
            # bool("false") is True.
            (campaign_table(ping="false"), "'ping' must be true or false"),
            (campaign_table(probe_config={"reuse_connections": 1}),
             "'reuse_connections' must be true or false"),
            # int(2.7) is 2.
            (campaign_table(schedule={"rounds": 2.7, "interval_ms": 1.0}),
             "'rounds' must be an integer"),
            (campaign_table(seed=True), "'seed' must be an integer"),
            (campaign_table(schedule={"rounds": 2, "interval_ms": "8"}),
             "'interval_ms' must be a finite number"),
            (campaign_table(probe_config={"timeout_ms": float("nan")}),
             "'timeout_ms' must be a finite number"),
            # A campaign named "7", a transport list that is a name.
            (campaign_table(name=7), "'name' must be a string, got 7"),
            (campaign_table(transports="doh"),
             "'transports' must be a non-empty list of names, got 'doh'"),
            # Every resolver in the catalog for a misspelt key.
            ({**campaign_table(), "resolvers": {"regoin": "EU"}},
             "'resolvers' has unknown keys: regoin"),
            # A retry on an error class no probe reports never happens.
            (campaign_table(retry={"attempts": 2, "retry_on": ["timout"]}),
             "'retry_on': unknown error classes timout"),
            (campaign_table(retry={"retry_on": "timeout"}),
             "'retry_on' must be a non-empty list of names"),
            (campaign_table(schedule=8), "'schedule' must be a table, got 8"),
        ],
    )
    def test_wrong_shape_rejected_not_coerced(self, table, message):
        with pytest.raises(CampaignConfigError, match=message):
            parse_file(table)

    def test_written_file_parses_to_itself(self):
        parsed = parse_file(
            {
                "vantages": ["ec2-frankfurt"],
                "resolvers": {"region": "EU"},
                "campaign": {
                    "name": "nightly-eu", "transports": ["dot"],
                    "schedule": {"rounds": 4, "interval_ms": 21600000.0,
                                 "stagger_ms": 300000.0},
                    "retry": {"attempts": 2, "retry_on": ["timeout"]},
                },
            }
        )
        assert parse_file(json.loads(json.dumps(spec_to_table(parsed)))) == parsed


def _presets():
    """id -> every CampaignConfig the library builds in code."""
    configs = {
        "home": home_campaign_config(rounds=4),
        "ec2": ec2_campaign_config(rounds=4),
        "recheck": monthly_recheck_config("2024-02", start_ms=1.0e9),
        "fault": fault_campaign_config(rounds=4),
        "diff": diff_campaign_config(domains=("google.com",), transports=("dot",)),
    }
    configs.update(
        (f"sessions {name}", sessions_campaign_config(policy))
        for name, policy in POLICY_PRESETS.items()
    )
    configs.update(
        (f"observer {config.name}", config)
        for config in observer_campaign_configs(months=2, rounds_per_month=2)
    )
    return configs


@pytest.mark.parametrize("case", sorted(_presets()))
def test_every_preset_round_trips_through_its_table(case):
    config = _presets()[case]
    table = json.loads(json.dumps(spec_to_table(config)))
    assert spec_from_table(CampaignConfig, table, CampaignConfigError, case) == config


class TestTargetSelection:
    def test_all(self):
        assert select_targets("all") == [entry.hostname for entry in CATALOG]

    def test_explicit_list(self):
        assert select_targets(["dns.google"]) == ["dns.google"]

    def test_unknown_hostname_rejected(self):
        with pytest.raises(CampaignConfigError, match="^unknown resolvers: bogus.example$"):
            select_targets(["dns.google", "bogus.example"])

    def test_bare_string_rejected(self):
        with pytest.raises(CampaignConfigError):
            select_targets("dns.google")

    def test_region_filter(self):
        targets = select_targets({"region": "EU"})
        assert targets
        assert all(entry.region == "EU" for entry in CATALOG if entry.hostname in targets)

    def test_mainstream_filter(self):
        targets = select_targets({"mainstream": True})
        assert targets == [entry.hostname for entry in CATALOG if entry.mainstream]

    def test_combined_filter(self):
        targets = select_targets({"region": "AS", "anycast": True})
        assert targets == [
            entry.hostname for entry in CATALOG if entry.region == "AS" and entry.anycast
        ]
        assert "dns.alidns.com" in targets

    def test_unknown_selector_key_rejected(self):
        with pytest.raises(CampaignConfigError, match="unknown keys: regoin"):
            select_targets({"regoin": "EU"})

    def test_selector_flags_must_be_true_or_false(self):
        # bool("false") is True: this selected the mainstream tier.
        with pytest.raises(CampaignConfigError, match="'mainstream' must be true or false"):
            select_targets({"region": "EU", "mainstream": "false"})
        with pytest.raises(CampaignConfigError, match="'anycast' must be true or false"):
            select_targets({"anycast": 1})

    def test_empty_match_rejected(self):
        with pytest.raises(CampaignConfigError):
            select_targets({"region": "AF"})

    def test_garbage_selector_rejected(self):
        with pytest.raises(CampaignConfigError):
            select_targets(42)


def run_file(tmp_path, table, *flags):
    """``measure --spec`` on ``table``; the records it wrote."""
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(table))
    output = tmp_path / "out.jsonl"
    assert main(["measure", "--spec", str(path), "--output", str(output), *flags]) == 0
    return ResultStore.load_jsonl(output)


class TestMeasureSpec:
    def test_run_produces_records(self, tmp_path, capsys):
        store = run_file(
            tmp_path,
            {
                "vantages": ["ec2-ohio"],
                "resolvers": ["dns.google", "dns.quad9.net"],
                "campaign": {"name": "spec-run",
                             "schedule": {"rounds": 2, "interval_ms": MS_PER_HOUR}},
            },
        )
        # 2 rounds x 2 resolvers x (3 domains + ping).
        assert len(store) == 16
        assert {r.campaign for r in store} == {"spec-run"}

    def test_transport(self, tmp_path, capsys):
        store = run_file(
            tmp_path,
            {"resolvers": ["dns.google"],
             "campaign": {"name": "dot-spec", "transports": ["dot"],
                          "schedule": {"rounds": 1, "interval_ms": MS_PER_HOUR}}},
        )
        queries = store.filter(kind="dns_query")
        assert queries and all(r.transport == "dot" for r in queries)

    def test_rounds_keep_the_file_interval(self, tmp_path, capsys):
        store = run_file(
            tmp_path,
            {"resolvers": ["dns.google"],
             "campaign": {"name": "cadence", "ping": False,
                          "schedule": {"rounds": 3, "interval_ms": 2 * MS_PER_HOUR,
                                       "stagger_ms": 60_000.0}}},
        )
        first = {}
        for record in store:
            first[record.round_index] = min(
                first.get(record.round_index, record.started_at_ms), record.started_at_ms
            )
        starts = [first[index] for index in sorted(first)]
        for earlier, later in zip(starts, starts[1:]):
            assert abs((later - earlier) - 2 * MS_PER_HOUR) <= 60_000.0

    def test_same_file_same_records(self, tmp_path, capsys):
        table = {"resolvers": ["dns.google"],
                 "campaign": {"name": "again", "seed": 3,
                              "schedule": {"rounds": 1, "interval_ms": MS_PER_HOUR}}}
        first = run_file(tmp_path, table).to_jsonl()
        assert run_file(tmp_path, table).to_jsonl() == first

    def test_a_file_and_the_flags_saying_the_same_campaign_agree(self, tmp_path, capsys):
        # The campaign's seed is the world seed on both paths.
        from_file = run_file(
            tmp_path,
            {"resolvers": ["dns.google", "dns.quad9.net"],
             "campaign": {"name": "same", "seed": 3,
                          "schedule": {"rounds": 2, "interval_ms": 8 * MS_PER_HOUR}}},
        )
        output = tmp_path / "flags.jsonl"
        assert main([
            "measure", "--name", "same", "--seed", "3", "--rounds", "2",
            "--resolver", "dns.google", "dns.quad9.net", "--output", str(output),
        ]) == 0
        assert output.read_text() == from_file.to_jsonl()

    def test_execution_flags_combine_with_a_file(self, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({
            "resolvers": ["dns.google", "dns.quad9.net"],
            "campaign": {"name": "pooled", "retry": {"attempts": 2},
                         "schedule": {"rounds": 2, "interval_ms": MS_PER_HOUR}},
        }))
        assert main([
            "measure", "--spec", str(path), "--workers", "1", "--shards", "2",
            "--store", str(tmp_path / "wh"), "--faults", "--slo", "default",
            "--alerts", str(tmp_path / "al"), "--trace", str(tmp_path / "t.jsonl"),
            "--metrics", str(tmp_path / "m.json"), "--progress",
        ]) == 0
        out, err = capsys.readouterr()
        assert "wrote 16 records to warehouse" in out
        assert "armed fault plan" in err and "shard 1 [" in err
        for artefact in ("al/alerts.jsonl", "al/verdicts.json", "t.jsonl", "m.json"):
            assert (tmp_path / artefact).exists(), artefact

    def test_faults_reach_a_campaign_that_starts_late(self, tmp_path, capsys):
        # The plan runs from virtual time 0 to past the last round, wherever
        # the schedule starts; one that ended a span after 0 would arm
        # nothing a month in, and every query would succeed.
        store = run_file(
            tmp_path,
            {"resolvers": ["dns.google", "dns.quad9.net", "dns.adguard.com"],
             "campaign": {"name": "late", "schedule": {
                 "rounds": 6, "interval_ms": MS_PER_HOUR, "start_ms": 30 * MS_PER_DAY,
             }}},
            "--faults", "--fault-fraction", "0.5",
        )
        queries = store.filter(kind="dns_query")
        assert len(queries) == 54
        assert any(not record.success for record in queries)

    @pytest.mark.parametrize(
        "flag",
        ["--name", "--vantage", "--resolver", "--rounds", "--interval-hours",
         "--method", "--seed", "--attempts"],
    )
    def test_campaign_flags_refused_beside_a_file(self, flag, tmp_path, capsys):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(campaign_table()))
        value = {"--vantage": "ec2-ohio", "--resolver": "dns.google",
                 "--method": "POST", "--interval-hours": "8"}.get(flag, "5")
        assert main(["measure", "--spec", str(path), flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"repro-dns measure: {flag} cannot be given with --spec: "
            f"the campaign file describes the campaign\n"
        )
        assert not (tmp_path / "results.jsonl").exists()

    def test_zero_interval_refused_from_a_file(self, tmp_path, capsys, monkeypatch):
        # Every round at one instant: a burst, not a schedule.
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(
            campaign_table(schedule={"rounds": 3, "interval_ms": 0.0})
        ))
        assert main(["measure", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"repro-dns measure: campaign file {path} 'schedule' 'interval_ms' "
            f"must be positive: every round would start at one instant\n"
        )
        assert not (tmp_path / "results.jsonl").exists()


#: SHA-256 of the results JSONL of two campaign files: the do53 campaign CI
#: runs (two vantages, five resolvers, two rounds) and a one-resolver,
#: one-round DoH campaign.  Pinned from the output of the campaign-file
#: runner before campaign files held a CampaignConfig; ``measure --spec``
#: must keep these bytes.
PINNED_CAMPAIGNS = {
    "do53": (
        {
            "vantages": ["ec2-ohio", "ec2-seoul"],
            "resolvers": ["dns.google", "dns.quad9.net", "dns.adguard.com",
                          "doh.opendns.com", "ordns.he.net"],
            "campaign": {
                "name": "lifetime-do53", "transports": ["do53"],
                "schedule": {"rounds": 2, "interval_ms": 28800000.0,
                             "stagger_ms": 300000.0},
            },
        },
        "a02d6956b8d868a727460a3f1fb1cc8dbbe19a4d7f11894b1562e273601e1e4f",
    ),
    "one-resolver": (
        {
            "resolvers": ["dns.google"],
            "campaign": {
                "name": "cli-config-test",
                "schedule": {"rounds": 1, "interval_ms": 28800000.0},
            },
        },
        "15cbbfc448eacee538892913e8e88b5f512d0b463f411ba97024db2658a2cf20",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_CAMPAIGNS))
def test_campaign_file_output_is_pinned(case, tmp_path, capsys):
    spec, digest = PINNED_CAMPAIGNS[case]
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(spec))
    output = tmp_path / "out.jsonl"
    assert main(["measure", "--spec", str(path), "--output", str(output)]) == 0
    assert hashlib.sha256(output.read_bytes()).hexdigest() == digest
