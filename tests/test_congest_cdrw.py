"""Tests for distributed CDRW in the CONGEST model and the complexity bounds."""

from __future__ import annotations

import math

import pytest

from repro.api import RunConfig, detect
from repro.congest import (
    detect_community_congest,
    expected_edges,
    message_bound_all_communities,
    message_bound_single_community,
    round_bound_all_communities,
    round_bound_single_community,
)
from repro.core import CDRWParameters
from repro.exceptions import SimulationError
from repro.graphs import ppm_expected_conductance
from repro.metrics import average_f_score


class TestCongestDetection:
    def test_matches_centralized_community(self, small_ppm, scalar_community):
        graph = small_ppm.graph
        delta = ppm_expected_conductance(
            graph.num_vertices, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        congest = detect_community_congest(graph, 5, delta_hint=delta)
        centralized = scalar_community(graph, 5, delta_hint=delta)
        assert congest.community.size == centralized.size
        assert congest.community.walk_length == centralized.walk_length
        assert congest.community.community == centralized.community

    def test_message_level_equals_count_only(self, two_cliques_graph):
        parameters = CDRWParameters(initial_size=2, max_walk_length=8)
        fast = detect_community_congest(
            two_cliques_graph, 0, parameters, delta_hint=1 / 21, count_only=True
        )
        slow = detect_community_congest(
            two_cliques_graph, 0, parameters, delta_hint=1 / 21, count_only=False
        )
        assert fast.community.community == slow.community.community

    def test_costs_are_positive_and_recorded(self, small_ppm):
        outcome = detect_community_congest(small_ppm.graph, 0, delta_hint=0.05)
        assert outcome.cost.rounds > 0
        assert outcome.cost.messages > 0
        assert outcome.bfs_depth >= 1
        assert "probability" in outcome.cost.messages_by_kind

    def test_rounds_polylog_in_n(self, small_ppm):
        n = small_ppm.graph.num_vertices
        outcome = detect_community_congest(small_ppm.graph, 0, delta_hint=0.05)
        # Generous constant: the point is polylog, not linear in n.
        assert outcome.cost.rounds < 100 * math.log(n) ** 4

    def test_full_detection_accuracy_and_cost_accumulation(self, small_ppm):
        graph, truth = small_ppm.graph, small_ppm.partition
        delta = ppm_expected_conductance(
            graph.num_vertices, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        report = detect(graph, "congest", config=RunConfig(seed=1), delta_hint=delta)
        result = report.native_result
        assert average_f_score(result.detection, truth) > 0.85
        per_community_total = sum(c.cost.rounds for c in result.per_community)
        assert result.total_cost.rounds == per_community_total

    def test_invalid_seed_vertex(self, two_cliques_graph):
        with pytest.raises(SimulationError):
            detect_community_congest(two_cliques_graph, 50)


class TestComplexityBounds:
    def test_round_bounds(self):
        assert round_bound_single_community(1024) == pytest.approx(math.log(1024) ** 4)
        assert round_bound_all_communities(1024, 4) == pytest.approx(4 * math.log(1024) ** 4)

    def test_message_bounds_scale_with_r(self):
        single = message_bound_single_community(1024, 4, 0.05, 0.001)
        full = message_bound_all_communities(1024, 4, 0.05, 0.001)
        assert full == pytest.approx(4 * single)

    def test_expected_edges_formula(self):
        value = expected_edges(1000, 5, 0.05, 0.001)
        intra = 5 * 200 * 199 / 2 * 0.05
        inter = 10 * 200 * 200 * 0.001
        assert value == pytest.approx(intra + inter)

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            round_bound_single_community(1)
        with pytest.raises(SimulationError):
            message_bound_single_community(10, 3, 0.1, 0.1)

    def test_measured_messages_within_bound(self, small_ppm):
        graph = small_ppm.graph
        n = graph.num_vertices
        outcome = detect_community_congest(graph, 0, delta_hint=0.05)
        bound = message_bound_single_community(
            n, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        # The bound includes the log^4 factor, so measured messages should be
        # well below it (generous constant for small n).
        assert outcome.cost.messages < 50 * bound
