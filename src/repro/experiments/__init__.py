"""Experiment harness: figure grids, complexity sweeps and baseline comparisons."""

from .runner import ExperimentRow, ExperimentTable, TrialAggregate, run_trials
from .parameters import PROBABILITY_SPECS, RATIO_SPECS, ProbabilitySpec, RatioSpec
from .figures import (
    cdrw_f_score_on_gnp,
    cdrw_f_score_on_ppm,
    figure1_stats,
    figure2_grid,
    figure3_grid,
    figure4a_grid,
    figure4b_grid,
)
from .complexity import congest_scaling, kmachine_scaling
from .baseline_comparison import BASELINE_NAMES, compare_baselines
from .reporting import format_table, render_experiment

__all__ = [
    "ExperimentRow",
    "ExperimentTable",
    "TrialAggregate",
    "run_trials",
    "PROBABILITY_SPECS",
    "RATIO_SPECS",
    "ProbabilitySpec",
    "RatioSpec",
    "cdrw_f_score_on_gnp",
    "cdrw_f_score_on_ppm",
    "figure1_stats",
    "figure2_grid",
    "figure3_grid",
    "figure4a_grid",
    "figure4b_grid",
    "congest_scaling",
    "kmachine_scaling",
    "BASELINE_NAMES",
    "compare_baselines",
    "format_table",
    "render_experiment",
]
