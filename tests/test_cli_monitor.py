"""CLI coverage for the monitoring surface: ``monitor``, ``metrics export``,
and ``measure --slo/--alerts`` — plus the stdout-purity contract that lets
alert JSONL pipe straight into JSON tooling."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.core.results import ResultStore
from repro.core.runner import Campaign
from repro.errors import MonitorConfigError
from repro.experiments.campaigns import ec2_campaign_config
from repro.monitor import Monitor, SloPolicy, default_policy

from tests.conftest import make_mini_world

HOSTNAMES = (
    "dns.google",
    "dns.quad9.net",
    "dns.brahma.world",
    "doh.ffmuc.net",
    "dns.pumplex.com",
)


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """A small monitored-worthy record set as JSONL file + warehouse."""
    from repro.store import Warehouse

    root = tmp_path_factory.mktemp("monitor-cli")
    world = make_mini_world(seed=5)
    campaign = Campaign(
        network=world.network,
        vantages=[world.vantage(n) for n in ("ec2-ohio", "ec2-seoul")],
        targets=world.targets(HOSTNAMES),
        config=ec2_campaign_config(rounds=6, seed=5),
    )
    store = campaign.run()
    jsonl = root / "results.jsonl"
    store.save_jsonl(jsonl)
    warehouse_dir = root / "wh"
    Warehouse.from_records(store.records, warehouse_dir)
    return store, jsonl, warehouse_dir


def _expected_alerts(store: ResultStore) -> str:
    monitor = Monitor(default_policy())
    monitor.replay(store.records)
    monitor.finalize()
    return monitor.alerts.to_jsonl()


class TestParserRegistration:
    @pytest.mark.parametrize(
        "argv",
        [
            ["monitor", "results.jsonl"],
            ["monitor", "wh", "--slo", "p.toml", "--alerts", "-", "--gate"],
            ["monitor", "wh", "--from-aggregates", "--verdicts", "v.json"],
            ["metrics", "export", "--input", "m.json"],
            ["metrics", "export", "--input", "m.json", "--output", "prom.txt"],
            ["measure", "--slo", "default", "--alerts", "artifacts"],
        ],
    )
    def test_monitoring_surface_parses(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)


class TestMonitorCommand:
    def test_replay_writes_artifacts_and_scoreboard(self, results, tmp_path, capsys):
        store, jsonl, _ = results
        alerts_path = tmp_path / "alerts.jsonl"
        verdicts_path = tmp_path / "verdicts.json"
        rc = main(
            ["monitor", str(jsonl),
             "--alerts", str(alerts_path), "--verdicts", str(verdicts_path)]
        )
        assert rc == 0
        assert alerts_path.read_text(encoding="utf-8") == _expected_alerts(store)
        verdicts = json.loads(verdicts_path.read_text(encoding="utf-8"))
        assert verdicts and all("passed" in v for v in verdicts)
        out, err = capsys.readouterr()
        assert out.splitlines()[0].startswith("| vantage")
        assert "replayed" in err and "scoreboard:" in err

    def test_alerts_dash_keeps_stdout_pure_jsonl(self, results, capsys):
        """The piping regression: every stdout line must parse as JSON."""
        store, jsonl, _ = results
        rc = main(["monitor", str(jsonl), "--alerts", "-"])
        assert rc == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines, "expected alert lines on stdout"
        parsed = [json.loads(line) for line in lines]
        assert all("slo" in event for event in parsed)
        assert out == _expected_alerts(store)
        # the scoreboard and chatter moved to stderr
        assert "| vantage" in err and "| vantage" not in out

    def test_warehouse_input_equals_jsonl_input(self, results, tmp_path, capsys):
        _, jsonl, warehouse_dir = results
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["monitor", str(jsonl), "--alerts", str(a)]) == 0
        assert main(["monitor", str(warehouse_dir), "--alerts", str(b)]) == 0
        capsys.readouterr()
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")

    def test_from_aggregates_needs_a_warehouse(self, results, capsys):
        _, jsonl, warehouse_dir = results
        assert main(["monitor", str(jsonl), "--from-aggregates"]) == 2
        rc = main(["monitor", str(warehouse_dir), "--from-aggregates"])
        assert rc == 0
        out, err = capsys.readouterr()
        assert "persisted aggregates" in err
        assert "| vantage" in out

    def test_from_aggregates_verdicts_match_replay(self, results, tmp_path, capsys):
        _, _, warehouse_dir = results
        via_replay = tmp_path / "replay.json"
        via_book = tmp_path / "book.json"
        assert main(
            ["monitor", str(warehouse_dir), "--verdicts", str(via_replay)]
        ) == 0
        assert main(
            ["monitor", str(warehouse_dir), "--from-aggregates",
             "--verdicts", str(via_book)]
        ) == 0
        capsys.readouterr()
        assert json.loads(via_replay.read_text(encoding="utf-8")) == json.loads(
            via_book.read_text(encoding="utf-8")
        )

    def test_gate_fails_on_unhealthy_fleet(self, results, capsys):
        _, jsonl, _ = results
        assert main(["monitor", str(jsonl)]) == 0  # no gate: informational
        assert main(["monitor", str(jsonl), "--gate"]) == 1
        capsys.readouterr()

    def test_gate_passes_on_healthy_records(self, results, tmp_path, capsys):
        store, _, _ = results
        healthy = ResultStore()
        healthy.extend(
            r for r in store.records if r.resolver == "dns.quad9.net"
        )
        path = tmp_path / "healthy.jsonl"
        healthy.save_jsonl(path)
        assert main(["monitor", str(path), "--gate"]) == 0
        capsys.readouterr()

    def test_custom_policy_tightens_the_gate(self, results, tmp_path, capsys):
        _, jsonl, _ = results
        # An absurd 1 ms tail ceiling on an otherwise-passing resolver must
        # flip the gate, proving custom policy files actually take effect.
        policy = {
            "slos": [
                {"name": "impossible-tail", "kind": "latency_p95",
                 "threshold": 1.0, "severity": "critical",
                 "resolver": "dns.quad9.net"},
            ],
        }
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(json.dumps(policy), encoding="utf-8")
        assert main(
            ["monitor", str(jsonl), "--slo", str(policy_path), "--gate"]
        ) == 1
        capsys.readouterr()

    def test_bad_policy_file_exits_2_with_the_config_error(
        self, results, tmp_path, capsys
    ):
        _, jsonl, _ = results
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["monitor", str(jsonl), "--slo", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        with pytest.raises(MonitorConfigError) as caught:
            SloPolicy.load(bad)
        assert err == f"repro-dns monitor: {caught.value}\n"


class TestMeasureWithSlo:
    def test_measure_writes_alert_artifacts(self, tmp_path, capsys):
        out_path = tmp_path / "results.jsonl"
        alerts_dir = tmp_path / "artifacts"
        rc = main(
            ["measure", "--resolver", "dns.google", "dns.pumplex.com",
             "--rounds", "5", "--seed", "9",
             "--output", str(out_path), "--alerts", str(alerts_dir),
             "--progress"]
        )
        assert rc == 0
        out, err = capsys.readouterr()
        assert (alerts_dir / "alerts.jsonl").exists()
        assert (alerts_dir / "scoreboard.txt").exists()
        assert (alerts_dir / "verdicts.json").exists()
        # live alerts == replaying the written records through `monitor`
        replayed = Monitor(default_policy())
        replayed.replay(ResultStore.iter_jsonl(out_path))
        replayed.finalize()
        assert (alerts_dir / "alerts.jsonl").read_text(
            encoding="utf-8"
        ) == replayed.alerts.to_jsonl()
        # scoreboard on stdout; progress + artifact chatter on stderr
        assert "| vantage" in out
        assert any(line.startswith("progress ") for line in err.splitlines())
        assert not any(line.startswith("progress ") for line in out.splitlines())

    @pytest.mark.slow
    def test_parallel_measure_alerts_match_serial(self, tmp_path, capsys):
        serial_dir, pooled_dir = tmp_path / "serial", tmp_path / "pooled"
        base = [
            "measure", "--resolver", "dns.google", "dns.pumplex.com",
            "--rounds", "5", "--seed", "9", "--shard-by", "resolver",
        ]
        rc = main(
            base + ["--workers", "1",
                    "--output", str(tmp_path / "a.jsonl"),
                    "--alerts", str(serial_dir)]
        )
        assert rc == 0
        rc = main(
            base + ["--workers", "2",
                    "--output", str(tmp_path / "b.jsonl"),
                    "--alerts", str(pooled_dir)]
        )
        assert rc == 0
        capsys.readouterr()
        for name in ("alerts.jsonl", "scoreboard.txt", "verdicts.json"):
            assert (serial_dir / name).read_bytes() == (
                pooled_dir / name
            ).read_bytes()


class TestMetricsExport:
    def _state_file(self, tmp_path):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        registry.inc("dns.requests", transport="doh")
        registry.set_gauge("monitor.groups", 4.0)
        for value in (2.0, 40.0, 900.0):
            registry.observe("dns.query_ms", value)
        path = tmp_path / "state.json"
        registry.save_state_json(path)
        return registry, path

    def test_state_export_to_stdout(self, tmp_path, capsys):
        registry, path = self._state_file(tmp_path)
        assert main(["metrics", "export", "--input", str(path)]) == 0
        out, _ = capsys.readouterr()
        assert out == registry.to_prometheus()
        assert "# TYPE dns_query_ms histogram" in out
        assert "monitor_groups 4" in out

    def test_snapshot_export_becomes_summaries(self, tmp_path, capsys):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        for value in (2.0, 40.0, 900.0):
            registry.observe("dns.query_ms", value)
        path = tmp_path / "snapshot.json"
        registry.save_json(path)
        assert main(["metrics", "export", "--input", str(path)]) == 0
        out, _ = capsys.readouterr()
        assert "# TYPE dns_query_ms summary" in out
        assert 'quantile="0.95"' in out

    def test_output_file_keeps_stdout_quiet(self, tmp_path, capsys):
        registry, path = self._state_file(tmp_path)
        target = tmp_path / "prom.txt"
        assert main(
            ["metrics", "export", "--input", str(path), "--output", str(target)]
        ) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert "exposition lines" in err
        assert target.read_text(encoding="utf-8") == registry.to_prometheus()

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        assert main(["metrics", "export", "--input", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unreadable" in err
