"""Tests for the experiment command-line interface."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENT_REGISTRY
from repro.experiments.cli import build_parser, main

#: Every bench subcommand; all but sweep-bench run the cascade at --threshold.
BENCH_COMMANDS = (
    "serve-bench",
    "load-bench",
    "dist-bench",
    "parallel-bench",
    "elastic-bench",
    "chaos-bench",
    "slo-bench",
    "infer-bench",
    "sweep-bench",
)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self, tmp_path):
        args = build_parser().parse_args(["run", "fig6_dataset_stats"])
        assert args.scale == "ci"
        assert args.output_dir is None

    def test_run_command_with_options(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "fig6_dataset_stats", "--scale", "paper", "--output-dir", str(tmp_path)]
        )
        assert args.scale == "paper"
        assert args.output_dir == tmp_path

    @pytest.mark.parametrize("command", BENCH_COMMANDS)
    def test_bench_commands_share_scale_output_and_threshold(self, command, tmp_path):
        parser = build_parser()
        args = parser.parse_args([command, "--scale", "paper", "--output-dir", str(tmp_path)])
        assert (args.command, args.scale, args.output_dir) == (command, "paper", tmp_path)
        defaults = parser.parse_args([command])
        assert (defaults.scale, defaults.output_dir) == ("ci", None)
        if command == "sweep-bench":
            # sweep-bench's --threshold is its own repeatable grid option.
            assert defaults.thresholds is None
            assert parser.parse_args([command, "--threshold", "0.3"]).thresholds == [0.3]
        else:
            assert defaults.threshold == 0.8
            assert parser.parse_args([command, "--threshold", "0.3"]).threshold == 0.3


class TestMain:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert set(printed) == set(EXPERIMENT_REGISTRY)

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["run", "not_an_experiment"])

    def test_run_single_experiment_and_write_output(self, tmp_path, capsys, monkeypatch):
        # Patch in a trivial experiment so the CLI test stays fast.
        from repro.experiments.results import ExperimentResult

        def fake_experiment(scale):
            result = ExperimentResult("fake_experiment", "Table 0", columns=["a"])
            result.add_row(a=1)
            return result

        monkeypatch.setitem(EXPERIMENT_REGISTRY, "fake_experiment", fake_experiment)
        exit_code = main(["run", "fake_experiment", "--output-dir", str(tmp_path)])
        assert exit_code == 0
        assert "Table 0" in capsys.readouterr().out
        assert (tmp_path / "fake_experiment.txt").exists()
