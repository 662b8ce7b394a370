"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.registry import EXPERIMENTS, run_experiment


class TestParser:
    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.command == "demo"
        assert args.minutes == 30
        assert args.seed == 42

    def test_demo_options(self):
        args = build_parser().parse_args(["demo", "--minutes", "5",
                                          "--seed", "7"])
        assert args.minutes == 5
        assert args.seed == 7

    def test_experiment_requires_names(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_flag_forms(self):
        args = build_parser().parse_args(["demo"])
        assert args.profile is None
        args = build_parser().parse_args(["demo", "--profile"])
        assert args.profile == ""
        args = build_parser().parse_args(["demo", "--profile", "x.pstats"])
        assert args.profile == "x.pstats"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_demo_runs_and_reports(self, capsys):
        assert main(["demo", "--minutes", "12"]) == 0
        out = capsys.readouterr().out
        assert "incidents" in out
        assert "throttle" in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "== table2" in out
        assert "0.35" in out

    def test_experiment_unknown_name(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_mixed_valid_invalid(self, capsys):
        assert main(["experiment", "table2", "fig99"]) == 2
        captured = capsys.readouterr()
        assert "== table2" in captured.out
        assert "fig99" in captured.err

    def test_demo_under_profile(self, capsys, tmp_path):
        stats_path = tmp_path / "demo.pstats"
        assert main(["demo", "--minutes", "2",
                     "--profile", str(stats_path)]) == 0
        out = capsys.readouterr().out
        assert "incidents" in out        # the demo itself still ran
        assert "function calls" in out   # the cProfile report printed
        assert stats_path.exists()

    def test_sharded_demo_profile_prints_stages(self, capsys, monkeypatch):
        from repro import cli

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        assert main(["demo", "--minutes", "2", "--jobs", "2",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        stages = out.split("shard stages:\n", 1)[1]
        assert "coordinator_build" in stages
        # One start path per worker: adopted, built, or prebuilt.
        assert any(path in stages for path in
                   ("worker_adopt", "worker_build", "worker_prebuild"))


class TestRegistry:
    def test_all_entries_have_descriptions(self):
        for name, (description, runner) in EXPERIMENTS.items():
            assert description
            assert callable(runner)

    def test_run_experiment_unknown(self):
        with pytest.raises(KeyError, match="valid:"):
            run_experiment("nope")

    def test_table2_report_shape(self):
        report = run_experiment("table2")
        assert report.experiment == "table2"
        assert len(report.rows) >= 3


class TestExperimentAll:
    def test_all_expands_to_registry(self, monkeypatch, capsys):
        # Stub every runner so 'all' stays fast; verify each is invoked.
        from repro.experiments import registry
        from repro.experiments.reporting import ExperimentReport

        invoked = []

        def stub_for(name):
            def runner():
                invoked.append(name)
                report = ExperimentReport(name, "stub")
                report.add("q", 1, 1)
                return report
            return runner

        stubbed = {name: (desc, stub_for(name))
                   for name, (desc, _r) in registry.EXPERIMENTS.items()}
        monkeypatch.setattr(registry, "EXPERIMENTS", stubbed)
        assert main(["experiment", "all"]) == 0
        assert invoked == list(stubbed)
        out = capsys.readouterr().out
        assert out.count("== ") == len(stubbed)


class TestSoakCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["soak"])
        assert args.command == "soak"
        assert args.minutes == 120
        assert args.machines == 8
        assert args.kill_every == 900
        assert args.outage == 60
        assert args.store is None

    def test_soak_smoke_passes_and_writes_artifacts(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "soak.json"
        store = tmp_path / "store"
        code = main(["soak", "--minutes", "15", "--machines", "3",
                     "--kill-every", "400", "--outage", "20",
                     "--store", str(store),
                     "--report-json", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "result: PASS" in out
        data = json.loads(report_path.read_text())
        assert data["passed"] is True
        assert data["restarts"] == 2
        assert data["kill_ticks"] == [400, 800]
        assert (store / "wal.jsonl").exists()
        assert (store / "snapshot.json").exists()
