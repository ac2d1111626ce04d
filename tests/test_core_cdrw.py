"""Tests for the CDRW algorithm itself (single seed, pool loop, parallel variant)."""

from __future__ import annotations

import math

import pytest

from repro.api import RunConfig, detect
from repro.core import CDRWParameters, select_spread_seeds
from repro.exceptions import AlgorithmError
from repro.graphs import Graph, Partition, gnp_random_graph, ppm_expected_conductance
from repro.metrics import average_f_score, community_f_score, score_detection


class TestDetectCommunity:
    def test_clique_detected_from_any_seed(self, two_cliques_graph, scalar_community):
        for seed_vertex in (0, 3, 7):
            result = scalar_community(
                two_cliques_graph, seed_vertex, CDRWParameters(initial_size=2), delta_hint=1 / 21
            )
            expected = set(range(5)) if seed_vertex < 5 else set(range(5, 10))
            assert seed_vertex in result.community
            assert community_f_score(result.community, expected) > 0.8

    def test_gnp_detected_as_single_community(self, small_gnp_graph, scalar_community):
        result = scalar_community(small_gnp_graph, 0, delta_hint=0.0)
        assert result.size > 0.9 * small_gnp_graph.num_vertices

    def test_ppm_block_detected(self, small_ppm, scalar_community):
        graph, truth = small_ppm.graph, small_ppm.partition
        n = graph.num_vertices
        delta = ppm_expected_conductance(n, 2, small_ppm.intra_probability, small_ppm.inter_probability)
        result = scalar_community(graph, 10, delta_hint=delta)
        assert community_f_score(result.community, truth.community_containing(10)) > 0.85

    def test_history_recorded_and_seed_included(self, small_ppm, scalar_community):
        result = scalar_community(small_ppm.graph, 3, delta_hint=0.05)
        assert len(result.history) == result.walk_length
        assert 3 in result.community
        assert result.delta >= 0.02

    def test_isolated_seed_is_own_community(self, scalar_community):
        graph = Graph(5, [(1, 2), (2, 3)])
        result = scalar_community(graph, 0, delta_hint=0.1)
        assert result.community == frozenset({0})

    def test_edgeless_graph(self, scalar_community):
        result = scalar_community(Graph(3, []), 1)
        assert result.community == frozenset({1})
        assert result.stop_reason == "graph has no edges"

    def test_invalid_seed_vertex(self, two_cliques_graph, scalar_community):
        with pytest.raises(AlgorithmError):
            scalar_community(two_cliques_graph, 99)

    def test_explicit_delta_parameter_wins(self, two_cliques_graph, scalar_community):
        parameters = CDRWParameters(delta=0.5, initial_size=2)
        result = scalar_community(two_cliques_graph, 0, parameters, delta_hint=0.01)
        assert result.delta == 0.5

    def test_tight_budget_falls_back_to_last_found(self, small_gnp_graph, scalar_community):
        parameters = CDRWParameters(max_walk_length=2)
        result = scalar_community(small_gnp_graph, 0, parameters, delta_hint=0.0)
        assert result.walk_length <= 2
        assert 0 in result.community


class TestDetectCommunities:
    def test_two_cliques_full_detection(self, two_cliques_graph):
        detection = detect(
            two_cliques_graph, "scalar", CDRWParameters(initial_size=2),
            RunConfig(seed=1), delta_hint=1 / 21,
        ).detection
        truth = Partition.from_labels([0] * 5 + [1] * 5)
        assert average_f_score(detection, truth) > 0.8
        assert detection.coverage() == 1.0

    def test_ppm_detection_accuracy(self, small_ppm):
        graph, truth = small_ppm.graph, small_ppm.partition
        delta = ppm_expected_conductance(
            graph.num_vertices, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        detection = detect(graph, "scalar", config=RunConfig(seed=3), delta_hint=delta).detection
        assert average_f_score(detection, truth) > 0.85
        scores = score_detection(detection, truth)
        assert all(score.precision > 0.7 for score in scores)

    def test_four_block_ppm(self, medium_ppm):
        graph, truth = medium_ppm.graph, medium_ppm.partition
        delta = ppm_expected_conductance(
            graph.num_vertices, 4, medium_ppm.intra_probability, medium_ppm.inter_probability
        )
        detection = detect(graph, "scalar", config=RunConfig(seed=5), delta_hint=delta).detection
        assert average_f_score(detection, truth) > 0.8

    def test_deterministic_given_seed(self, small_ppm):
        config = RunConfig(seed=11)
        a = detect(small_ppm.graph, "scalar", config=config, delta_hint=0.05).detection
        b = detect(small_ppm.graph, "scalar", config=config, delta_hint=0.05).detection
        assert a.detected_sets() == b.detected_sets()

    def test_max_seeds_caps_detections(self, small_ppm):
        config = RunConfig(seed=2, max_seeds=1)
        detection = detect(small_ppm.graph, "scalar", config=config, delta_hint=0.05).detection
        assert detection.num_communities == 1

    def test_every_vertex_covered(self, small_ppm):
        config = RunConfig(seed=2)
        detection = detect(small_ppm.graph, "scalar", config=config, delta_hint=0.05).detection
        assert detection.coverage() == 1.0

    def test_to_partition_is_disjoint(self, small_ppm):
        config = RunConfig(seed=2)
        detection = detect(small_ppm.graph, "scalar", config=config, delta_hint=0.05).detection
        partition = detection.to_partition()
        assert partition.num_vertices == small_ppm.graph.num_vertices


class TestParallelVariant:
    def test_spread_seeds_distinct(self, small_ppm):
        seeds = select_spread_seeds(small_ppm.graph, 4, seed=0)
        assert len(seeds) == len(set(seeds)) == 4

    def test_spread_seeds_validation(self, two_cliques_graph):
        with pytest.raises(AlgorithmError):
            select_spread_seeds(two_cliques_graph, 0)
        with pytest.raises(AlgorithmError):
            select_spread_seeds(two_cliques_graph, 99)

    def test_parallel_detection_on_ppm(self, small_ppm):
        graph, truth = small_ppm.graph, small_ppm.partition
        delta = ppm_expected_conductance(
            graph.num_vertices, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        config = RunConfig(seed=4, num_communities=2)
        detection = detect(graph, "parallel", config=config, delta_hint=delta).detection
        assert 1 <= detection.num_communities <= 2
        assert average_f_score(detection, truth) > 0.8

    def test_duplicate_seeds_in_same_block_are_merged(self, two_cliques_graph):
        detection = detect(
            two_cliques_graph,
            "parallel",
            CDRWParameters(initial_size=2),
            RunConfig(seed=0, num_communities=4, seed_min_distance=0),
            delta_hint=1 / 21,
        ).detection
        # At most one surviving community per clique.
        assert detection.num_communities <= 2 + 1

    def test_invalid_arguments(self, two_cliques_graph):
        with pytest.raises(AlgorithmError):
            detect(two_cliques_graph, "parallel", config=RunConfig(num_communities=0))
        with pytest.raises(AlgorithmError):
            detect(
                two_cliques_graph,
                "parallel",
                config=RunConfig(num_communities=2, overlap_merge_threshold=0.0),
            )
