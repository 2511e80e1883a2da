"""Tests for the config-driven measurement service (Netrics-style specs)."""

import json

import pytest

from repro.catalog.resolvers import CATALOG
from repro.core.platform import CampaignSpec, load_spec, run_spec, select_targets
from repro.core.scheduler import MS_PER_HOUR
from repro.errors import CampaignConfigError
from repro.files import spec_from_table, spec_to_table


def parse_spec(table) -> CampaignSpec:
    return spec_from_table(CampaignSpec, table, CampaignConfigError, "campaign spec")


class TestSpecParsing:
    def test_minimal_spec_gets_defaults(self):
        normalized = parse_spec({"name": "t"})
        assert normalized.transport == "doh"
        assert normalized.rounds == 3
        assert normalized.vantages == ("ec2-ohio",)
        assert normalized.ping is True

    def test_unknown_key_rejected(self):
        with pytest.raises(CampaignConfigError):
            parse_spec({"name": "t", "resolverz": []})

    def test_missing_name_rejected(self):
        with pytest.raises(CampaignConfigError):
            parse_spec({})
        with pytest.raises(CampaignConfigError):
            parse_spec({"name": "  "})

    def test_bad_rounds_rejected(self):
        with pytest.raises(CampaignConfigError):
            parse_spec({"name": "t", "rounds": 0})

    def test_bad_method_rejected(self):
        with pytest.raises(CampaignConfigError):
            parse_spec({"name": "t", "method": "BREW"})

    def test_load_spec_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "file-test", "rounds": 2}))
        spec = load_spec(path)
        assert spec.name == "file-test"

    def test_load_spec_rejects_non_object(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CampaignConfigError):
            load_spec(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # A bare string was split into its characters: ten one-letter
            # domains, or vantages named "e", "c", "2", ...
            ("domains", "google.com", "'domains' must be a non-empty list of names"),
            ("vantages", "ec2-ohio", "'vantages' must be a non-empty list of names"),
            ("vantages", [], "'vantages' must be a non-empty list of names"),
            ("domains", ["google.com", 7], "'domains' must be a non-empty list of names"),
            # bool("false") is True.
            ("ping", "false", "'ping' must be true or false"),
            ("reuse_connections", 1, "'reuse_connections' must be true or false"),
            # int(2.7) is 2.
            ("rounds", 2.7, "'rounds' must be an integer"),
            ("seed", True, "'seed' must be an integer"),
            ("interval_hours", "8", "'interval_hours' must be a finite number"),
            ("timeout_ms", float("nan"), "'timeout_ms' must be a finite number"),
            # Every round at one instant: a burst, not a schedule.
            ("interval_hours", 0, "interval_hours must be positive"),
            # A campaign named "7", a transport named "['doh']".
            ("name", 7, "'name' must be a string, got 7"),
            ("transport", ["doh"], "'transport' must be a string, got \\['doh'\\]"),
            # Every resolver in the catalog for a misspelt key.
            ("resolvers", {"regoin": "EU"}, "'resolvers' has unknown keys: regoin"),
        ],
    )
    def test_wrong_shape_rejected_not_coerced(self, key, value, message):
        with pytest.raises(CampaignConfigError, match=message):
            parse_spec({"name": "t", key: value})

    def test_normalized_spec_parses_to_itself(self):
        normalized = parse_spec({"name": "t", "rounds": 2, "interval_hours": 1})
        assert parse_spec(spec_to_table(normalized)) == normalized


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


class TestRunSpec:
    def test_run_produces_records(self):
        run = run_spec(
            parse_spec(
                {
                    "name": "spec-run",
                    "vantages": ["ec2-ohio"],
                    "resolvers": ["dns.google", "dns.quad9.net"],
                    "rounds": 2,
                    "interval_hours": 1,
                    "stagger_minutes": 0,
                },
            )
        )
        # One shard: the identity plan.
        assert len(run.shard_results) == 1
        # 2 rounds x 2 resolvers x (3 domains + ping).
        assert len(run.store) == 16
        assert {r.campaign for r in run.store} == {"spec-run"}

    def test_transport_spec(self):
        store = run_spec(
            parse_spec(
                {
                    "name": "dot-spec",
                    "resolvers": ["dns.google"],
                    "transport": "dot",
                    "rounds": 1,
                    "stagger_minutes": 0,
                },
            )
        ).store
        queries = store.filter(kind="dns_query")
        assert queries and all(r.transport == "dot" for r in queries)

    def test_rounds_keep_the_spec_interval(self):
        store = run_spec(
            parse_spec(
                {"name": "cadence", "resolvers": ["dns.google"], "rounds": 3,
                 "interval_hours": 2, "stagger_minutes": 1, "ping": False},
            )
        ).store
        first = {}
        for record in store:
            first[record.round_index] = min(
                first.get(record.round_index, record.started_at_ms), record.started_at_ms
            )
        starts = [first[index] for index in sorted(first)]
        for earlier, later in zip(starts, starts[1:]):
            assert abs((later - earlier) - 2 * MS_PER_HOUR) <= 60_000.0

    def test_same_spec_same_records(self):
        spec = parse_spec(
            {"name": "again", "resolvers": ["dns.google"], "rounds": 1, "seed": 3}
        )
        assert run_spec(spec).store.to_jsonl() == run_spec(spec).store.to_jsonl()
