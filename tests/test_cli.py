"""Tests for the repro-dns command-line interface."""

import argparse
import ast
import dataclasses
import json
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.errors import CampaignConfigError
from repro.obs import get_metrics

from tests.cli_parser_snapshot import PARSER_SNAPSHOT


def snapshot(parser, prefix=""):
    """``{subcommand: {argument: (default, type, choices, nargs, required)}}``."""
    out, arguments = {}, {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(snapshot(sub, f"{prefix}{name} "))
        elif not isinstance(action, argparse._HelpAction):
            name = action.option_strings[0] if action.option_strings else action.dest
            arguments[name] = (
                action.default,
                getattr(action.type, "__name__", None),
                list(action.choices) if action.choices is not None else None,
                action.nargs,
                action.required,
            )
    if prefix and arguments:
        out[prefix.strip()] = arguments
    return out


class TestParser:
    @pytest.mark.parametrize("subcommand", sorted(PARSER_SNAPSHOT))
    def test_parser_snapshot(self, subcommand):
        now = snapshot(build_parser())
        assert sorted(now) == sorted(PARSER_SNAPSHOT)
        expected = PARSER_SNAPSHOT[subcommand]
        assert sorted(now[subcommand]) == sorted(expected)
        for flag, declared in now[subcommand].items():
            assert declared == expected[flag], (subcommand, flag)

    def test_every_argument_is_declared_once(self):
        """One string per argument in ``cli.py``: a literal handed to
        ``add_argument``, or a key of the option table."""
        declared = []
        for node in ast.walk(ast.parse(Path(repro.cli.__file__).read_text())):
            if isinstance(node, ast.Call) and (
                getattr(node.func, "attr", None) == "add_argument"
            ):
                declared += [a.value for a in node.args if isinstance(a, ast.Constant)]
            elif isinstance(node, ast.AnnAssign) and (
                getattr(node.target, "id", None) == "_OPTIONS"
            ):
                declared += [key.value for key in node.value.keys]
        assert len(declared) == len(set(declared))
        taken = {flag for flags in PARSER_SNAPSHOT.values() for flag in flags}
        assert set(declared) == taken

    def test_subcommands_registered(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["measure"],
            ["report"],
            ["figure", "figure1"],
            ["query", "dns.google", "google.com"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_bad_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "figure9"])


class TestListCommand:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "91 resolvers" in out
        assert "dns.google" in out

    def test_region_filter(self, capsys):
        assert main(["list", "--region", "AS"]) == 0
        out = capsys.readouterr().out
        assert "dns.twnic.tw" in out
        assert "dns.brahma.world" not in out

    def test_mainstream_filter(self, capsys):
        assert main(["list", "--mainstream"]) == 0
        out = capsys.readouterr().out
        assert "13 resolvers" in out


class TestQueryCommand:
    def test_successful_query(self, capsys):
        code = main(["query", "dns.google", "google.com", "--vantage", "ec2-ohio"])
        out = capsys.readouterr().out
        assert code == 0
        assert "response time" in out
        assert "google.com." in out

    def test_failed_query_exits_nonzero(self, capsys):
        code = main(["query", "dns.pumplex.com", "google.com"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out


class TestMeasureCommand:
    def test_writes_jsonl(self, tmp_path, capsys):
        output = tmp_path / "out.jsonl"
        code = main([
            "measure", "--vantage", "ec2-ohio",
            "--resolver", "dns.google", "dns.quad9.net",
            "--rounds", "2", "--output", str(output),
        ])
        assert code == 0
        from repro.core.results import ResultStore

        store = ResultStore.load_jsonl(output)
        # 2 rounds x 2 resolvers x (3 queries + 1 ping).
        assert len(store) == 16


CAMPAIGN = [
    "--resolver", "dns.google", "dns.adguard.com", "dns.quad9.net", "doh.opendns.com",
    "--vantage", "ec2-ohio", "ec2-seoul", "--rounds", "2", "--seed", "3",
]


def _tree(root):
    """Every file under ``root``: relative name -> bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(Path(root).rglob("*"))
        if path.is_file()
    }


class TestOneExecutor:
    """``measure`` without ``--workers`` *is* the identity shard plan."""

    def test_plain_measure_equals_the_identity_plan(self, tmp_path, capsys):
        for name, plan in (("plain", []), ("identity", ["--workers", "1", "--shards", "1"])):
            out = tmp_path / name
            out.mkdir()
            assert main([
                "measure", *CAMPAIGN, *plan, "--output", str(out / "records.jsonl"),
                "--trace", str(out / "spans.jsonl"), "--metrics", str(out / "metrics.json"),
                "--slo", "default", "--alerts", str(out / "alerts"),
            ]) == 0
        capsys.readouterr()
        plain, identity = _tree(tmp_path / "plain"), _tree(tmp_path / "identity")
        assert plain["records.jsonl"].splitlines() == identity["records.jsonl"].splitlines()
        assert len(plain["records.jsonl"].splitlines()) == 64
        assert {"alerts/alerts.jsonl", "spans.jsonl", "metrics.json"} <= set(plain)
        assert plain == identity

    def test_plain_measure_into_a_store_equals_the_identity_plan(self, tmp_path, capsys):
        for name, plan in (("plain", []), ("identity", ["--workers", "1", "--shards", "1"])):
            assert main([
                "measure", *CAMPAIGN, *plan, "--faults", "--attempts", "2",
                "--store", str(tmp_path / name), "--segment-records", "32",
            ]) == 0
        out, err = capsys.readouterr()
        assert "injector:" not in err and "\nwarehouse " in err
        assert "warehouse " + str(tmp_path / "plain") + ":" not in out
        plain = _tree(tmp_path / "plain")
        assert len([name for name in plain if name.endswith(".jsonl")]) == 2
        assert plain == _tree(tmp_path / "identity")

    def test_trace_spans_equal_measure_trace_spans(self, tmp_path, capsys):
        assert main(["trace", *CAMPAIGN, "--output", str(tmp_path / "trace.jsonl")]) == 0
        assert main([
            "measure", *CAMPAIGN, "--name", "cli-trace", "--interval-hours", "1",
            "--output", str(tmp_path / "r.jsonl"), "--trace", str(tmp_path / "measure.jsonl"),
        ]) == 0
        assert "traced 64 records" in capsys.readouterr().out
        assert (tmp_path / "trace.jsonl").read_bytes() == (
            tmp_path / "measure.jsonl"
        ).read_bytes()

    def test_progress_alone_reports_rounds_live_and_enables_no_metrics(
        self, tmp_path, capsys, monkeypatch
    ):
        heard = []
        status = repro.cli._status

        def listening(message):
            if message.startswith("progress "):
                heard.append(get_metrics().enabled)
            status(message)

        monkeypatch.setattr(repro.cli, "_status", listening)
        assert main([
            "measure", "--resolver", "dns.google", "--rounds", "2", "--progress",
            "--output", str(tmp_path / "r.jsonl"),
        ]) == 0
        out, err = capsys.readouterr()
        progress = [line for line in err.splitlines() if line.startswith("progress ")]
        assert len(progress) == 2 and "progress " not in out
        assert "round=0" in progress[0] and "round=1" in progress[1]
        # Printed from inside the run, before its closing status line...
        assert err.index(progress[1]) < err.index("parallel run: 1 shards")
        # ... and --progress switches no registry on.
        assert heard == [False, False]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["r.jsonl"]

    def test_shards_without_workers_is_honoured(self, tmp_path, capsys):
        assert main([
            "measure", "--resolver", "dns.google", "dns.quad9.net", "--rounds", "1",
            "--shards", "2", "--progress", "--output", str(tmp_path / "r.jsonl"),
        ]) == 0
        err = capsys.readouterr().err
        assert "parallel run: 2 shards via sequential" in err
        # More than one shard: a line per shard after the run, none per round.
        assert "  shard 1 [resolvers[1/2]]" in err and "progress " not in err

    def test_failed_store_run_leaves_no_staging(self, tmp_path, capsys, monkeypatch):
        from repro.core.runner import Campaign

        store = tmp_path / "wh"

        def doomed(self):
            assert (store / ".staging").exists()  # the shard's sink is open
            raise CampaignConfigError("the campaign gave up")

        monkeypatch.setattr(Campaign, "run", doomed)
        assert main([
            "measure", "--resolver", "dns.google", "--rounds", "1", "--store", str(store),
        ]) == 2
        assert capsys.readouterr().err.endswith(
            "repro-dns measure: the campaign gave up\n"
        )
        assert not (store / ".staging").exists()


class TestErrorBoundary:
    """A ``ReproError`` / ``OSError`` is one line on stderr and exit code 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["measure", "--vantage", "ec2-ohoi"], "no vantage point 'ec2-ohoi'"),
            (["measure", "--rounds", "0"], "schedule needs at least one round"),
            (["measure", "--workers", "0"], "--workers must be >= 1 (got 0)"),
            (["diff", "--workers", "0"], "--workers must be >= 1 (got 0)"),
            (["sessions", "--workers", "0"], "--workers must be >= 1 (got 0)"),
            (["observe", "--workers", "0"], "--workers must be >= 1 (got 0)"),
            (
                ["measure", "--resolver", "dns.google", "--store", "{tmp}/wh",
                 "--segment-records", "0"],
                "segment_records must be >= 1, got 0",
            ),
            (["correlate", "--input", "{tmp}/nope.jsonl"], "No such file or directory"),
            (["store", "info", "{tmp}"], "no results warehouse at"),
            (
                ["measure", "--resolver", "dns.google", "dns.gogle.typo"],
                "unknown resolvers: dns.gogle.typo",
            ),
            (
                ["measure", "--resolver", "dns.google", "dns.gogle.typo", "--workers", "2"],
                "unknown resolvers: dns.gogle.typo",
            ),
            (
                ["trace", "--resolver", "dns.google", "dns.gogle.typo"],
                "unknown resolvers: dns.gogle.typo",
            ),
        ],
    )
    def test_exit_2_and_the_message(self, argv, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # default --output paths land here, if ever
        argv = [word.replace("{tmp}", str(tmp_path)) for word in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].startswith(f"repro-dns {argv[0]}: ")
        assert message in err.splitlines()[-1]
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_run_config_refuses_an_unknown_resolver(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"name": "typo", "resolvers": ["dns.google", "dns.gogle.typo"], "rounds": 1}
        ))
        assert main(["run-config", str(spec), "--output", str(tmp_path / "o.jsonl")]) == 2
        assert capsys.readouterr().err == (
            "repro-dns run-config: unknown resolvers: dns.gogle.typo\n"
        )

    def test_diff_verify_refuses_a_resolver_the_world_lacks(self, tmp_path, capsys):
        from repro.core.results import ResultStore
        from repro.store import Warehouse

        assert main([
            "diff", "--rounds", "1", "--vantage", "ec2-ohio", "--faults",
            "--resolver", "dns.google", "dns.quad9.net", "dns.adguard.com",
            "--store", str(tmp_path / "wh"),
        ]) == 0
        moved = ResultStore()
        moved.extend(
            dataclasses.replace(record, resolver="gone." + record.resolver)
            for record in Warehouse.open(tmp_path / "wh")
        )
        moved.save_jsonl(tmp_path / "moved.jsonl")
        capsys.readouterr()
        assert main(["diff", "--input", str(tmp_path / "moved.jsonl"), "--verify", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("repro-dns diff: unknown resolvers: gone.")

    def test_other_exceptions_still_propagate(self, monkeypatch):
        def broken(entries, *_rest):
            raise ValueError("a bug, not a user error")

        monkeypatch.setattr(repro.cli, "render_table", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["list"])


class TestStampCommand:
    def test_encode(self, capsys):
        assert main(["stamp", "dns.google"]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("sdns://")

    def test_decode(self, capsys):
        main(["stamp", "dns.quad9.net"])
        uri = capsys.readouterr().out.strip()
        assert main(["stamp", uri, "--decode"]) == 0
        out = capsys.readouterr().out
        assert "dns.quad9.net" in out
        assert "protocol: doh" in out


class TestRunConfigCommand:
    def test_runs_spec_file(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "name": "cli-config-test",
            "resolvers": ["dns.google"],
            "rounds": 1,
            "stagger_minutes": 0,
        }))
        output = tmp_path / "out.jsonl"
        assert main(["run-config", str(spec_path), "--output", str(output)]) == 0
        from repro.core.results import ResultStore

        store = ResultStore.load_jsonl(output)
        assert len(store) == 4  # 3 domains + 1 ping


class TestAnalysisCommands:
    @pytest.fixture()
    def results_file(self, tmp_path, capsys):
        output = tmp_path / "r.jsonl"
        main([
            "measure", "--vantage", "ec2-ohio",
            "--resolver", "dns.google", "dns.quad9.net", "ordns.he.net",
            "--rounds", "3", "--output", str(output),
        ])
        capsys.readouterr()
        return output

    def test_correlate(self, results_file, capsys):
        assert main(["correlate", "--input", str(results_file)]) == 0
        out = capsys.readouterr().out
        assert "pearson" in out

    def test_drift_needs_two_campaigns(self, results_file, capsys):
        assert main(["drift", "--input", str(results_file)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "repro-dns drift: need at least two campaigns for drift analysis\n"


class TestFigureCommand:
    def test_renders_from_saved_results(self, tmp_path, capsys):
        output = tmp_path / "results.jsonl"
        main([
            "measure", "--vantage", "ec2-ohio", "--name", "ec2-global",
            "--resolver", "dns.google", "ordns.he.net",
            "--rounds", "2", "--output", str(output),
        ])
        capsys.readouterr()
        code = main(["figure", "figure1", "--input", str(output)])
        out = capsys.readouterr().out
        assert code == 0
        assert "figure1" in out
        assert "ordns.he.net" in out
