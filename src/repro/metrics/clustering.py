"""Partition-agreement metrics: the contingency table and NMI.

The paper reports only the seed-community F-score (implemented in
:mod:`repro.metrics.scores`); this partition-level metric is provided so
CDRW can be compared against the baselines of Section II on an equal footing
(LPA and spectral methods output whole partitions rather than per-seed
communities).  Unassigned vertices are ignored.
"""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import MetricError
from ..graphs.partition import Partition

__all__ = [
    "contingency_table",
    "normalized_mutual_information",
]


def _common_assignment(
    predicted: Partition, ground_truth: Partition
) -> tuple[np.ndarray, np.ndarray]:
    """Return the label vectors restricted to vertices assigned in both partitions."""
    if predicted.num_vertices != ground_truth.num_vertices:
        raise MetricError(
            "partitions cover different vertex counts: "
            f"{predicted.num_vertices} vs {ground_truth.num_vertices}"
        )
    both = (predicted.labels != Partition.UNASSIGNED) & (
        ground_truth.labels != Partition.UNASSIGNED
    )
    if not both.any():
        raise MetricError("no vertex is assigned in both partitions")
    return predicted.labels[both], ground_truth.labels[both]


def contingency_table(predicted: Partition, ground_truth: Partition) -> np.ndarray:
    """Return the contingency table ``N[i, j] = |predicted_i ∩ truth_j|``."""
    predicted_labels, truth_labels = _common_assignment(predicted, ground_truth)
    num_predicted = int(predicted_labels.max()) + 1
    num_truth = int(truth_labels.max()) + 1
    table = np.zeros((num_predicted, num_truth), dtype=np.int64)
    np.add.at(table, (predicted_labels, truth_labels), 1)
    return table


def normalized_mutual_information(predicted: Partition, ground_truth: Partition) -> float:
    """Return the NMI (arithmetic-mean normalisation) between two partitions."""
    table = contingency_table(predicted, ground_truth).astype(np.float64)
    total = table.sum()
    if total == 0:
        return 0.0
    joint = table / total
    row_marginal = joint.sum(axis=1)
    column_marginal = joint.sum(axis=0)

    mutual_information = 0.0
    for i in range(joint.shape[0]):
        for j in range(joint.shape[1]):
            if joint[i, j] > 0:
                mutual_information += joint[i, j] * math.log(
                    joint[i, j] / (row_marginal[i] * column_marginal[j])
                )
    row_entropy = -sum(p * math.log(p) for p in row_marginal if p > 0)
    column_entropy = -sum(p * math.log(p) for p in column_marginal if p > 0)
    if row_entropy == 0.0 and column_entropy == 0.0:
        return 1.0
    normaliser = (row_entropy + column_entropy) / 2.0
    if normaliser == 0.0:
        return 0.0
    return max(0.0, min(1.0, mutual_information / normaliser))
