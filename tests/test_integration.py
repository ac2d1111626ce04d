"""End-to-end integration tests: the paper's headline claims on small instances.

These tests exercise the public API exactly the way the examples and
benchmarks do, and check the qualitative claims of the paper:

* a pure random graph is detected as one community (Figure 2),
* PPM blocks are recovered when ``q`` is far below ``p/(r log(n/r))``
  (Theorem 6 / Figure 3), and accuracy degrades as ``q`` approaches ``p``,
* the three execution models (centralized, CONGEST, k-machine) agree on the
  detected communities, and
* the measured distributed complexities behave as the analysis predicts.
"""

from __future__ import annotations

import math

import pytest

from repro import (
    CDRWParameters,
    Partition,
    RunConfig,
    average_f_score,
    detect,
    gnp_random_graph,
    planted_partition_graph,
)
from repro.congest import detect_community_congest
from repro.graphs import mixing_parameter, ppm_expected_conductance
from repro.kmachine import detect_community_kmachine
from repro.metrics import normalized_mutual_information


class TestHeadlineClaims:
    def test_random_graph_is_one_community(self):
        n = 512
        graph = gnp_random_graph(n, 2 * math.log(n) / n, seed=21)
        detection = detect(graph, "scalar", config=RunConfig(seed=21), delta_hint=0.0).detection
        f_score = average_f_score(detection, Partition.single_community(n))
        assert f_score > 0.95

    def test_well_separated_ppm_recovered(self):
        n, r = 512, 2
        p = 2 * math.log(n) ** 2 / n
        q = 0.6 / n
        ppm = planted_partition_graph(n, r, p, q, seed=8)
        delta = ppm_expected_conductance(n, r, p, q)
        detection = detect(ppm.graph, "scalar", config=RunConfig(seed=8), delta_hint=delta).detection
        assert average_f_score(detection, ppm.partition) > 0.9

    def test_accuracy_degrades_as_q_grows(self):
        n, r = 512, 2
        p = 2 * math.log(n) ** 2 / n
        scores = []
        for q in (0.1 / n, math.log(n) ** 2 / n):
            ppm = planted_partition_graph(n, r, p, q, seed=9)
            delta = ppm_expected_conductance(n, r, p, q)
            config = RunConfig(seed=9)
            detection = detect(ppm.graph, "scalar", config=config, delta_hint=delta).detection
            scores.append(average_f_score(detection, ppm.partition))
        assert scores[0] > scores[1]

    def test_theorem_regime_indicator(self):
        # q = o(p / (r log(n/r))) is the regime of Theorem 6: the per-step
        # escape probability is then o(1/log(n/r)).
        n, r = 2048, 4
        p = 2 * math.log(n) ** 2 / n
        q_good = p / (4 * r * math.log(n / r))
        q_bad = p / 2
        assert mixing_parameter(n, r, p, q_good) < 1.0 / math.log(n / r)
        assert mixing_parameter(n, r, p, q_bad) > 1.0 / math.log(n / r)


class TestExecutionModelAgreement:
    def test_centralized_congest_kmachine_agree(self, small_ppm, scalar_community):
        graph = small_ppm.graph
        delta = ppm_expected_conductance(
            graph.num_vertices, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        seed_vertex = 17
        centralized = scalar_community(graph, seed_vertex, delta_hint=delta)
        congest = detect_community_congest(graph, seed_vertex, delta_hint=delta)
        kmachine = detect_community_kmachine(
            graph, seed_vertex, 4, delta_hint=delta, partition_seed=0
        )
        assert congest.community.community == centralized.community
        assert kmachine.community.community == centralized.community

    def test_partitions_agree_between_runs(self, small_ppm):
        graph, truth = small_ppm.graph, small_ppm.partition
        delta = ppm_expected_conductance(
            graph.num_vertices, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        detection = detect(graph, "scalar", config=RunConfig(seed=30), delta_hint=delta).detection
        partition = detection.to_partition()
        assert normalized_mutual_information(partition, truth) > 0.7


class TestParameterAblations:
    def test_linear_schedule_matches_geometric_accuracy(self, small_ppm):
        graph, truth = small_ppm.graph, small_ppm.partition
        delta = ppm_expected_conductance(
            graph.num_vertices, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        geometric = detect(
            graph, "scalar", CDRWParameters(size_schedule="geometric"), RunConfig(seed=4),
            delta_hint=delta,
        ).detection
        linear = detect(
            graph, "scalar", CDRWParameters(size_schedule="linear"), RunConfig(seed=4),
            delta_hint=delta,
        ).detection
        assert abs(
            average_f_score(geometric, truth) - average_f_score(linear, truth)
        ) < 0.1

    def test_lazy_walk_variant_still_accurate(self, small_ppm):
        graph, truth = small_ppm.graph, small_ppm.partition
        delta = ppm_expected_conductance(
            graph.num_vertices, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        detection = detect(
            graph, "scalar", CDRWParameters(lazy_walk=True, walk_length_factor=8),
            RunConfig(seed=4), delta_hint=delta,
        ).detection
        assert average_f_score(detection, truth) > 0.75

    def test_larger_delta_stops_earlier(self, small_ppm):
        graph = small_ppm.graph
        config = RunConfig(seed=6, max_seeds=1)
        small_delta = detect(graph, "scalar", CDRWParameters(delta=0.02), config).detection
        large_delta = detect(graph, "scalar", CDRWParameters(delta=5.0), config).detection
        assert (
            large_delta.communities[0].walk_length
            <= small_delta.communities[0].walk_length
        )
