"""Tests for the accuracy metrics (the paper's F-score and NMI)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.result import CommunityResult, DetectionResult
from repro.exceptions import MetricError
from repro.graphs import Partition
from repro.metrics import (
    average_f_score,
    community_f_score,
    community_precision,
    community_recall,
    contingency_table,
    normalized_mutual_information,
    partition_average_f_score,
    score_community,
    score_detection,
)


def _detection(communities: list[tuple[int, list[int]]], n: int) -> DetectionResult:
    results = tuple(
        CommunityResult(
            seed=seed,
            community=frozenset(members),
            walk_length=1,
            history=(),
            stop_reason="test",
            delta=0.1,
        )
        for seed, members in communities
    )
    return DetectionResult(num_vertices=n, communities=results)


class TestSeedScores:
    def test_perfect_detection(self):
        truth = Partition.from_labels([0] * 5 + [1] * 5)
        assert community_precision(range(5), truth.members(0)) == 1.0
        assert community_recall(range(5), truth.members(0)) == 1.0
        assert community_f_score(range(5), truth.members(0)) == 1.0

    def test_partial_detection(self):
        truth = set(range(10))
        detected = set(range(5)) | {20, 21}
        assert community_precision(detected, truth) == pytest.approx(5 / 7)
        assert community_recall(detected, truth) == pytest.approx(0.5)

    def test_empty_sets(self):
        assert community_precision([], range(5)) == 0.0
        assert community_recall(range(5), []) == 0.0
        assert community_f_score([], []) == 0.0

    def test_score_community_counts(self):
        truth = Partition.from_labels([0] * 4 + [1] * 4)
        score = score_community(0, [0, 1, 4], truth)
        assert score.intersection_size == 2
        assert score.detected_size == 3
        assert score.truth_size == 4
        assert score.f_score == pytest.approx(2 * (2 / 3) * 0.5 / ((2 / 3) + 0.5))

    def test_score_community_unassigned_seed_raises(self):
        truth = Partition.from_labels([0, -1])
        with pytest.raises(MetricError):
            score_community(1, [1], truth)

    def test_score_detection_and_average(self):
        truth = Partition.from_labels([0] * 5 + [1] * 5)
        detection = _detection([(0, list(range(5))), (9, list(range(5, 10)))], 10)
        scores = score_detection(detection, truth)
        assert len(scores) == 2
        assert average_f_score(detection, truth) == 1.0
        assert average_f_score(scores) == 1.0

    def test_average_f_score_requires_truth_for_detection(self):
        detection = _detection([(0, [0])], 2)
        with pytest.raises(MetricError):
            average_f_score(detection)

    def test_size_mismatch_rejected(self):
        truth = Partition.from_labels([0, 0])
        detection = _detection([(0, [0])], 3)
        with pytest.raises(MetricError):
            score_detection(detection, truth)

    def test_partition_average_f_score(self):
        truth = Partition.from_labels([0] * 5 + [1] * 5)
        perfect = Partition.from_labels([1] * 5 + [0] * 5)  # swapped labels
        assert partition_average_f_score(perfect, truth) == 1.0
        noisy = Partition.from_labels([0] * 4 + [1] * 6)
        assert 0.5 < partition_average_f_score(noisy, truth) < 1.0

    @given(st.lists(st.integers(0, 3), min_size=4, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_partition_f_score_bounded(self, labels):
        truth = Partition.from_labels([i % 2 for i in range(len(labels))])
        predicted = Partition.from_labels(labels)
        value = partition_average_f_score(predicted, truth)
        assert 0.0 <= value <= 1.0

    @staticmethod
    def _set_based_reference(detected: Partition, ground_truth: Partition) -> float:
        """The pre-vectorization implementation, kept verbatim as the oracle."""
        detected_communities = detected.communities()
        if not detected_communities:
            return 0.0
        truth_communities = ground_truth.communities()
        if not truth_communities:
            return 0.0
        total_weight = 0
        total_score = 0.0
        for community in detected_communities:
            best = 0.0
            for truth in truth_communities:
                best = max(best, community_f_score(community, truth))
            total_score += best * len(community)
            total_weight += len(community)
        if total_weight == 0:
            return 0.0
        return total_score / total_weight

    def test_confusion_matrix_path_byte_identical_to_set_loop(self):
        """The bincount rewrite must reproduce the set-based scores exactly."""
        import numpy as np

        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 80))
            detected = Partition.from_labels(rng.integers(-1, 6, size=n))
            truth = Partition.from_labels(rng.integers(-1, 5, size=n))
            fast = partition_average_f_score(detected, truth)
            slow = self._set_based_reference(detected, truth)
            assert fast == slow  # byte-identical, not approx

    def test_all_unassigned_partitions(self):
        empty = Partition.from_labels([-1, -1, -1])
        truth = Partition.from_labels([0, 0, 1])
        assert partition_average_f_score(empty, truth) == 0.0
        assert partition_average_f_score(truth, empty) == 0.0

    def test_detected_community_disjoint_from_truth_scores_zero(self):
        # The detected community's members are all unassigned in the truth:
        # every pairwise intersection is empty, so its best F-score is 0.
        detected = Partition.from_labels([0, 0, 1, 1])
        truth = Partition.from_labels([-1, -1, 0, 0])
        value = partition_average_f_score(detected, truth)
        assert value == pytest.approx(0.5)

    @pytest.mark.perf
    def test_partition_f_score_perf_smoke(self):
        """O(n + D·T) rewrite: 200k vertices, 100×100 communities, well under 1s.

        The former per-pair set loop took tens of seconds at this size; a
        generous ceiling fails loudly if it sneaks back in.
        """
        import time

        import numpy as np

        rng = np.random.default_rng(0)
        n = 200_000
        detected = Partition.from_labels(rng.integers(0, 100, size=n))
        truth = Partition.from_labels(rng.integers(0, 100, size=n))
        start = time.perf_counter()
        value = partition_average_f_score(detected, truth)
        elapsed = time.perf_counter() - start
        assert 0.0 <= value <= 1.0
        assert elapsed < 1.0, (
            f"partition_average_f_score took {elapsed:.2f}s on 200k vertices "
            f"— did the per-pair set loop sneak back in?"
        )


class TestClusteringMetrics:
    def test_identical_partitions_max_scores(self):
        a = Partition.from_labels([0, 0, 1, 1, 2, 2])
        b = Partition.from_labels([5, 5, 9, 9, 7, 7])
        assert normalized_mutual_information(a, b) == pytest.approx(1.0)

    def test_single_cluster_vs_split(self):
        whole = Partition.single_community(8)
        split = Partition.from_labels([0] * 4 + [1] * 4)
        assert normalized_mutual_information(whole, split) == pytest.approx(0.0, abs=1e-9)

    def test_contingency_table_counts(self):
        a = Partition.from_labels([0, 0, 1, 1])
        b = Partition.from_labels([0, 1, 0, 1])
        table = contingency_table(a, b)
        assert table.sum() == 4
        assert table.shape == (2, 2)
        assert (table == 1).all()

    def test_size_mismatch_rejected(self):
        with pytest.raises(MetricError):
            normalized_mutual_information(
                Partition.from_labels([0, 1]), Partition.from_labels([0, 1, 1])
            )

    def test_no_common_assignment_rejected(self):
        a = Partition.from_labels([0, -1])
        b = Partition.from_labels([-1, 0])
        with pytest.raises(MetricError):
            normalized_mutual_information(a, b)

    @given(st.lists(st.integers(0, 4), min_size=4, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_metric_ranges(self, labels):
        predicted = Partition.from_labels(labels)
        truth = Partition.from_labels([i % 3 for i in range(len(labels))])
        assert 0.0 <= normalized_mutual_information(predicted, truth) <= 1.0
