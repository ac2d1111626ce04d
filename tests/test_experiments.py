"""Tests for the experiment harness (runner, figure grids, complexity, reporting, CLI)."""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ExperimentError
from repro.experiments import (
    PROBABILITY_SPECS,
    RATIO_SPECS,
    ExperimentTable,
    compare_baselines,
    congest_scaling,
    figure1_stats,
    figure2_grid,
    figure3_grid,
    figure4a_grid,
    figure4b_grid,
    format_table,
    kmachine_scaling,
    render_experiment,
    run_trials,
)
from repro.experiments.runner import TrialAggregate


class TestRunner:
    def test_run_trials_aggregates(self):
        aggregate = run_trials(lambda rng: float(rng.integers(10)), num_trials=5, seed=0)
        assert len(aggregate) == 5
        assert aggregate.minimum <= aggregate.mean <= aggregate.maximum

    def test_run_trials_reproducible(self):
        a = run_trials(lambda rng: float(rng.random()), 3, seed=2)
        b = run_trials(lambda rng: float(rng.random()), 3, seed=2)
        assert a.values == b.values

    def test_run_trials_validation(self):
        with pytest.raises(ExperimentError):
            run_trials(lambda rng: 1.0, 0)
        with pytest.raises(ExperimentError):
            run_trials(lambda rng: float("nan"), 1, seed=0)

    def test_trial_aggregate_statistics(self):
        aggregate = TrialAggregate(values=(1.0, 2.0, 3.0))
        assert aggregate.mean == pytest.approx(2.0)
        assert aggregate.std == pytest.approx(math.sqrt(2 / 3))

    def test_experiment_table_columns_and_series(self):
        table = ExperimentTable(name="t", description="d")
        table.add_row({"n": 10}, {"f": 0.5})
        table.add_row({"n": 20}, {"f": 0.9, "extra": 1.0})
        parameters, measurements = table.columns()
        assert parameters == ["n"]
        assert measurements == ["f", "extra"]
        assert table.series("f") == [0.5, 0.9]


class TestParameterSpecs:
    def test_probability_specs_evaluate(self):
        n = 2048
        assert PROBABILITY_SPECS["2logn/n"](n) == pytest.approx(2 * math.log(n) / n)
        assert PROBABILITY_SPECS["0.6/n"](n) == pytest.approx(0.6 / n)

    def test_ratio_specs_evaluate(self):
        n = 8192
        assert RATIO_SPECS["1.2log2^2(n)"](n) == pytest.approx(1.2 * math.log2(n) ** 2)

    def test_specs_reject_tiny_n(self):
        with pytest.raises(ExperimentError):
            PROBABILITY_SPECS["2logn/n"](1)


class TestFigureGrids:
    def test_figure1_stats_structure(self):
        table = figure1_stats(n=200, num_blocks=4, p=0.2, q=0.01, seed=0)
        assert len(table.rows) == 4
        for row in table.rows:
            assert row.measurements["intra_edges"] > row.measurements["inter_edges"]

    def test_figure2_small_grid_high_accuracy(self):
        table = figure2_grid(sizes=(128, 256), p_specs=("2log2n/n",), trials=1, seed=0)
        assert len(table.rows) == 2
        assert all(row.measurements["f_score"] > 0.9 for row in table.rows)

    def test_figure3_small_grid(self):
        table = figure3_grid(
            n=256, p_specs=("2log2n/n",), q_specs=("0.1/n", "logn/n"), trials=1, seed=0
        )
        assert len(table.rows) == 2
        easy = table.rows[0].measurements["f_score"]
        hard = table.rows[1].measurements["f_score"]
        assert easy > 0.8
        assert easy >= hard - 0.05

    def test_figure4a_small_grid(self):
        table = figure4a_grid(
            block_counts=(2,), community_size=128, ratio_specs=("1.2log2^2(n)",),
            trials=1, seed=0,
        )
        assert len(table.rows) == 1
        assert table.rows[0].measurements["f_score"] > 0.7

    def test_figure4b_uses_fixed_total_size(self):
        table = figure4b_grid(
            block_counts=(2, 4), total_size=256, ratio_specs=("1.2log2^2(n)",),
            trials=1, seed=0,
        )
        assert all(row.parameters["n"] == 256 for row in table.rows)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ExperimentError):
            figure2_grid(sizes=(128,), p_specs=("bogus",), trials=1)


class TestComplexityExperiments:
    def test_congest_scaling_rows(self):
        table = congest_scaling(sizes=(128, 256), seed=0)
        assert len(table.rows) == 2
        small, large = table.rows
        assert large.measurements["rounds"] > 0
        assert large.measurements["messages"] > small.measurements["messages"]

    def test_kmachine_scaling_monotone(self):
        table = kmachine_scaling(n=256, machine_counts=(2, 4, 8), seed=0)
        rounds = table.series("rounds")
        assert rounds[0] > rounds[1] > rounds[2]
        predictions = table.series("conversion_prediction")
        assert predictions[0] > predictions[-1]


class TestBaselineComparison:
    def test_compare_all_methods(self):
        table = compare_baselines(n=256, num_blocks=2, seed=0)
        methods = [row.parameters["method"] for row in table.rows]
        assert "cdrw" in methods and "spectral" in methods
        for row in table.rows:
            assert 0.0 <= row.measurements["f_score"] <= 1.0
            assert row.measurements["runtime_seconds"] >= 0.0

    def test_subset_of_methods(self):
        table = compare_baselines(n=256, num_blocks=2, seed=0, methods=("cdrw", "spectral"))
        assert len(table.rows) == 2

    def test_unknown_method_rejected(self):
        with pytest.raises(ExperimentError):
            compare_baselines(n=128, methods=("bogus",))


class TestReportingAndCli:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_experiment(self):
        table = ExperimentTable(name="demo", description="demo table")
        table.add_row({"n": 128}, {"f_score": 0.987654})
        text = render_experiment(table)
        assert "demo" in text
        assert "0.9877" in text

    def test_render_empty_table(self):
        table = ExperimentTable(name="empty", description="no rows")
        assert "(no rows)" in render_experiment(table)

    def test_cli_figure1(self, capsys):
        exit_code = main(["figure1", "--n", "100", "--blocks", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "figure1" in captured.out

    def test_cli_kmachine(self, capsys):
        exit_code = main(["kmachine", "--n", "128", "--machines", "2", "4"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "kmachine_scaling" in captured.out

    def test_cli_kmachine_zero_machines_exits_2(self, capsys):
        exit_code = main(["kmachine", "--n", "64", "--machines", "0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert captured.err == "repro kmachine: machine counts must be >= 1, got 0\n"

    def test_cli_figure2_zero_trials_exits_2(self, capsys):
        exit_code = main(["figure2", "--trials", "0"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert captured.err == "repro figure2: num_trials must be >= 1, got 0\n"

    def test_cli_detect_summary(self, capsys):
        exit_code = main(["detect", "--backend", "batched", "--n", "128", "--blocks", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "backend=batched" in captured.out
        assert "f_score" in captured.out

    def test_cli_detect_json_is_a_run_report(self, capsys):
        import json

        exit_code = main(
            ["detect", "--backend", "congest", "--n", "128", "--max-seeds", "1", "--json"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(captured.out)
        assert payload["backend"] == "congest"
        assert payload["total_cost"]["rounds"] > 0

    def test_cli_detect_list_backends(self, capsys):
        exit_code = main(["detect", "--list-backends"])
        captured = capsys.readouterr()
        assert exit_code == 0
        for name in ("scalar", "batched", "congest", "kmachine", "baseline:spectral"):
            assert name in captured.out

    def test_cli_detect_unknown_backend_exits_nonzero(self, capsys):
        exit_code = main(["detect", "--backend", "bogus", "--n", "64"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "available backends" in captured.err
        for name in ("scalar", "batched", "parallel"):
            assert name in captured.err

    def test_cli_detect_negative_max_seeds_exits_2(self, capsys):
        exit_code = main(["detect", "--n", "64", "--max-seeds", "-1"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert captured.err == "repro detect: max_seeds must be >= 0, got -1\n"

    def test_cli_detect_negative_workers_exits_2(self, capsys):
        exit_code = main(["detect", "--n", "64", "--workers", "-1"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert captured.err == "repro detect: workers must be >= 0 (0 = all cores), got -1\n"

    def test_cli_detect_dtype_flag_is_gone_exits_2(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["detect", "--n", "64", "--dtype", "float32"])
        captured = capsys.readouterr()
        assert raised.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --dtype float32" in captured.err
        assert "Traceback" not in captured.err

    def test_cli_seed_accepted_after_subcommand(self, capsys):
        """`repro detect --seed 5` used to die with 'unrecognized arguments'."""
        exit_code = main(["detect", "--seed", "5", "--n", "128", "--blocks", "2"])
        after = capsys.readouterr()
        assert exit_code == 0
        exit_code = main(["--seed", "5", "detect", "--n", "128", "--blocks", "2"])
        before = capsys.readouterr()
        assert exit_code == 0
        # Same seed, same graph, same result — wherever the flag is placed.
        assert after.out.splitlines()[:3] == before.out.splitlines()[:3]

    def test_cli_top_level_seed_not_clobbered_by_subparser_default(self, capsys):
        main(["--seed", "5", "detect", "--n", "128", "--blocks", "2"])
        seeded = capsys.readouterr()
        main(["detect", "--n", "128", "--blocks", "2"])
        default = capsys.readouterr()
        # Seed 5 generates a different PPM instance than the default seed 0,
        # so the graph lines must differ (the old parser silently reset the
        # top-level --seed to the subparser default).
        assert seeded.out.splitlines()[1] != default.out.splitlines()[1]

    def test_cli_detect_process_executor(self, capsys):
        exit_code = main(
            [
                "detect",
                "--n", "128",
                "--blocks", "2",
                "--executor", "process",
                "--workers", "2",
                "--max-seeds", "2",
            ]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "backend=batched" in captured.out


class TestCliSurface:
    """The subcommands are the facade plus the paper's experiments, nothing else."""

    KEPT = {
        "detect", "serve", "lint", "bench",
        "figure1", "figure2", "figure3", "figure4a", "figure4b",
        "congest", "kmachine", "baselines",
    }

    def test_parser_offers_exactly_the_kept_subcommands(self):
        (subcommands,) = (
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(subcommands.choices) == self.KEPT

    def test_readme_reproduction_block_names_only_kept_subcommands(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Reproducing the paper", 1)[1]
        block = section.split("```bash", 1)[1].split("```", 1)[0]
        commands = [
            line.split()[1] for line in block.splitlines() if line.startswith("repro ")
        ]
        assert commands
        assert set(commands) <= self.KEPT
