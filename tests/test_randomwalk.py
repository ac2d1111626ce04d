"""Tests for the random-walk substrate: transitions, distributions, stationarity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RandomWalkError
from repro.graphs import Graph
from repro.randomwalk import (
    WalkDistribution,
    lazy_transition_matrix,
    reverse_transition_matrix,
    stationary_distribution,
    transition_matrix,
)


class TestTransitionMatrix:
    def test_rows_are_stochastic(self, two_cliques_graph):
        matrix = transition_matrix(two_cliques_graph)
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.allclose(row_sums, 1.0)

    def test_entries_are_inverse_degree(self, path_graph):
        matrix = transition_matrix(path_graph).toarray()
        assert matrix[0, 1] == pytest.approx(1.0)
        assert matrix[1, 0] == pytest.approx(0.5)
        assert matrix[1, 2] == pytest.approx(0.5)

    def test_isolated_vertex_row_is_zero(self):
        graph = Graph(3, [(0, 1)])
        matrix = transition_matrix(graph).toarray()
        assert np.allclose(matrix[2], 0.0)

    def test_lazy_matrix_diagonal(self, triangle_graph):
        lazy = lazy_transition_matrix(triangle_graph, laziness=0.5).toarray()
        assert np.allclose(np.diag(lazy), 0.5)
        assert np.allclose(lazy.sum(axis=1), 1.0)

    def test_lazy_invalid_laziness(self, triangle_graph):
        with pytest.raises(RandomWalkError):
            lazy_transition_matrix(triangle_graph, laziness=1.0)

    def test_reverse_transition_preserves_mass(self, two_cliques_graph):
        operator = reverse_transition_matrix(two_cliques_graph)
        distribution = np.zeros(10)
        distribution[0] = 1.0
        for _ in range(5):
            distribution = operator @ distribution
            assert distribution.sum() == pytest.approx(1.0)

class TestStationary:
    def test_stationary_is_degree_over_volume(self, two_cliques_graph):
        pi = stationary_distribution(two_cliques_graph)
        degrees = two_cliques_graph.degrees()
        assert np.allclose(pi, degrees / two_cliques_graph.volume)
        assert pi.sum() == pytest.approx(1.0)

    def test_stationary_fixed_point(self, two_cliques_graph):
        pi = stationary_distribution(two_cliques_graph)
        advanced = reverse_transition_matrix(two_cliques_graph) @ pi
        assert np.allclose(advanced, pi)

    def test_stationary_requires_edges(self):
        with pytest.raises(RandomWalkError):
            stationary_distribution(Graph(3, []))

class TestWalkDistribution:
    def test_initial_state(self, two_cliques_graph):
        walk = WalkDistribution(two_cliques_graph, 0)
        assert walk.probability(0) == 1.0
        assert walk.steps == 0
        assert list(walk.support()) == [0]

    def test_step_spreads_to_neighbors(self, path_graph):
        walk = WalkDistribution(path_graph, 0)
        walk.step()
        assert walk.probability(1) == pytest.approx(1.0)
        walk.step()
        assert walk.probability(0) == pytest.approx(0.5)
        assert walk.probability(2) == pytest.approx(0.5)

    def test_run_to_and_restart(self, two_cliques_graph):
        walk = WalkDistribution(two_cliques_graph, 0)
        walk.run_to(4)
        assert walk.steps == 4
        with pytest.raises(RandomWalkError):
            walk.run_to(2)
        walk.restart()
        assert walk.steps == 0
        assert walk.probability(0) == 1.0

    def test_converges_to_stationary(self, small_gnp_graph):
        walk = WalkDistribution(small_gnp_graph, 0)
        walk.run_to(60)
        pi = stationary_distribution(small_gnp_graph)
        assert np.abs(walk.probabilities() - pi).sum() < 0.01

    def test_matches_matrix_power(self, two_cliques_graph):
        walk = WalkDistribution(two_cliques_graph, 3)
        walk.run_to(4)
        operator = reverse_transition_matrix(two_cliques_graph).toarray()
        start = np.zeros(10)
        start[3] = 1.0
        expected = np.linalg.matrix_power(operator, 4) @ start
        assert np.allclose(walk.probabilities(), expected)

    def test_restricted_and_mass(self, two_cliques_graph):
        walk = WalkDistribution(two_cliques_graph, 0)
        walk.run_to(3)
        restricted = walk.restricted(range(5))
        assert np.allclose(restricted[5:], 0.0)
        assert walk.mass_in(range(10)) == pytest.approx(1.0)
        assert walk.mass_in(range(5)) == pytest.approx(restricted.sum())

    def test_invalid_source(self, triangle_graph):
        with pytest.raises(RandomWalkError):
            WalkDistribution(triangle_graph, 9)

    @given(steps=st.integers(0, 12))
    @settings(max_examples=25, deadline=None)
    def test_mass_conserved_property(self, two_cliques_graph, steps):
        walk = WalkDistribution(two_cliques_graph, 0)
        walk.run_to(steps)
        assert walk.probabilities().sum() == pytest.approx(1.0)
        assert (walk.probabilities() >= 0).all()
