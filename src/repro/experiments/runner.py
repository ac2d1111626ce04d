"""Trial running and aggregation for the experiment harness.

Every figure of the paper reports an accuracy value per parameter
combination; the harness re-runs each combination over several independently
generated graphs and aggregates the F-scores.  :class:`TrialAggregate`
carries the mean, standard deviation and raw values so benchmarks can print
either a single number (like the paper's plots) or the spread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..exceptions import ExperimentError
from ..utils import spawn_rngs

__all__ = ["TrialAggregate", "run_trials", "ExperimentRow", "ExperimentTable"]


@dataclass(frozen=True)
class TrialAggregate:
    """Aggregate of a repeated measurement.

    Attributes
    ----------
    values:
        The raw per-trial values.
    """

    values: tuple[float, ...]

    @property
    def mean(self) -> float:
        """Arithmetic mean of the trials (0 for an empty aggregate)."""
        return float(np.mean(self.values)) if self.values else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation of the trials."""
        return float(np.std(self.values)) if self.values else 0.0

    @property
    def minimum(self) -> float:
        """Smallest trial value."""
        return float(min(self.values)) if self.values else 0.0

    @property
    def maximum(self) -> float:
        """Largest trial value."""
        return float(max(self.values)) if self.values else 0.0

    def __len__(self) -> int:
        return len(self.values)


def run_trials(
    trial: Callable[[np.random.Generator], float],
    num_trials: int,
    seed: int | np.random.Generator | None = None,
) -> TrialAggregate:
    """Run ``trial`` with ``num_trials`` independent generators and aggregate.

    Each trial receives its own child generator spawned from ``seed`` so runs
    are reproducible yet independent.
    """
    if num_trials < 1:
        raise ExperimentError(f"num_trials must be >= 1, got {num_trials}")
    generators = spawn_rngs(seed, num_trials)
    values = []
    for generator in generators:
        value = float(trial(generator))
        if math.isnan(value):
            raise ExperimentError("a trial returned NaN")
        values.append(value)
    return TrialAggregate(values=tuple(values))


@dataclass(frozen=True)
class ExperimentRow:
    """One row of an experiment result table: parameters plus measured values."""

    parameters: dict[str, object]
    measurements: dict[str, float]


@dataclass
class ExperimentTable:
    """A labelled collection of :class:`ExperimentRow` (one figure or table)."""

    name: str
    description: str
    rows: list[ExperimentRow] = field(default_factory=list)

    def add_row(self, parameters: dict[str, object], measurements: dict[str, float]) -> None:
        """Append a row to the table."""
        self.rows.append(ExperimentRow(parameters=dict(parameters), measurements=dict(measurements)))

    def columns(self) -> tuple[list[str], list[str]]:
        """Return (parameter column names, measurement column names) in stable order."""
        parameter_names: list[str] = []
        measurement_names: list[str] = []
        for row in self.rows:
            for key in row.parameters:
                if key not in parameter_names:
                    parameter_names.append(key)
            for key in row.measurements:
                if key not in measurement_names:
                    measurement_names.append(key)
        return parameter_names, measurement_names

    def series(self, key: str) -> list[float]:
        """Return the measurement ``key`` across all rows (missing -> NaN)."""
        return [row.measurements.get(key, float("nan")) for row in self.rows]
