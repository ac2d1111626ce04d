"""Tests for conductance, volume and the analytic PPM quantities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graphs import (
    Graph,
    average_volume,
    conductance,
    graph_conductance_estimate,
    mixing_parameter,
    planted_partition_graph,
    ppm_expected_conductance,
    ppm_expected_inter_edges,
    ppm_expected_intra_edges,
    subset_volume,
)
from repro.graphs.properties import _sweep_cut_conductance


class TestVolumeAndConductance:
    def test_subset_volume_matches_graph_method(self, two_cliques_graph):
        assert subset_volume(two_cliques_graph, range(5)) == two_cliques_graph.subset_volume(range(5))

    def test_average_volume_formula(self, two_cliques_graph):
        expected = two_cliques_graph.volume / two_cliques_graph.num_vertices * 3
        assert average_volume(two_cliques_graph, 3) == pytest.approx(expected)

    def test_average_volume_negative_size_rejected(self, two_cliques_graph):
        with pytest.raises(GraphError):
            average_volume(two_cliques_graph, -1)

    def test_conductance_of_clique_half(self, two_cliques_graph):
        # One bridge edge over a volume of 21.
        assert conductance(two_cliques_graph, range(5)) == pytest.approx(1 / 21)

    def test_conductance_empty_and_full(self, two_cliques_graph):
        assert conductance(two_cliques_graph, []) == 0.0
        assert conductance(two_cliques_graph, range(10)) == 0.0

    def test_sweep_estimate_close_to_true_value(self, two_cliques_graph):
        estimate = graph_conductance_estimate(two_cliques_graph)
        assert estimate == pytest.approx(1 / 21, rel=0.5)

    def test_sweep_estimate_trivial_graphs(self):
        assert graph_conductance_estimate(Graph(2, [])) == 0.0


class TestAnalyticPpmQuantities:
    def test_expected_intra_and_inter_edges(self):
        assert ppm_expected_intra_edges(1000, 5, 0.05) == pytest.approx(200 * 199 / 2 * 0.05)
        assert ppm_expected_inter_edges(1000, 5, 0.001) == pytest.approx(200 * 800 * 0.001)

    def test_expected_conductance_single_block_zero(self):
        assert ppm_expected_conductance(1000, 1, 0.05, 0.0) == 0.0

    def test_expected_conductance_formula(self):
        n, r, p, q = 1000, 5, 0.05, 0.001
        expected = (q * 800) / (p * 200 + q * 800)
        assert ppm_expected_conductance(n, r, p, q) == pytest.approx(expected)

    def test_expected_conductance_matches_empirical(self):
        n, r, p, q = 1000, 5, 0.05, 0.001
        ppm = planted_partition_graph(n, r, p, q, seed=0)
        empirical = min(
            conductance(ppm.graph, block) for block in ppm.partition.communities()
        )
        assert empirical == pytest.approx(ppm_expected_conductance(n, r, p, q), rel=0.3)

    def test_mixing_parameter(self):
        assert mixing_parameter(1000, 1, 0.1, 0.0) == 0.0
        value = mixing_parameter(1000, 5, 0.05, 0.001)
        assert value == pytest.approx(0.004 / 0.054)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(GraphError):
            ppm_expected_conductance(10, 3, 0.1, 0.1)
        with pytest.raises(GraphError):
            ppm_expected_conductance(10, 2, 1.5, 0.1)


def loop_sweep_conductance(graph: Graph, order) -> float:
    """The vertex-by-vertex sweep: the oracle for the vectorised sweep cut."""
    degrees = graph.degrees()
    indptr, indices, _ = graph.csr_arrays()
    membership = np.zeros(graph.num_vertices, dtype=bool)
    best = 1.0
    cut = 0
    volume_inside = 0
    for vertex in order[:-1]:
        vertex = int(vertex)
        neighbors = indices[indptr[vertex]:indptr[vertex + 1]]
        inside_neighbors = int(np.count_nonzero(membership[neighbors]))
        degree = int(degrees[vertex])
        cut += degree - 2 * inside_neighbors
        volume_inside += degree
        membership[vertex] = True
        denominator = min(volume_inside, graph.volume - volume_inside)
        if denominator > 0:
            best = min(best, cut / denominator)
    return float(best)


@st.composite
def graphs_with_orders(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    order = draw(st.permutations(range(n)))
    return Graph(n, edges), np.array(order, dtype=np.int64)


class TestSweepCut:
    @settings(max_examples=200, deadline=None)
    @given(graphs_with_orders())
    def test_vectorised_sweep_equals_vertex_loop(self, case):
        graph, order = case
        assert _sweep_cut_conductance(graph, order) == loop_sweep_conductance(graph, order)

    @pytest.mark.parametrize("n", [64, 512, 2048])
    def test_equal_on_ppm_fiedler_like_orders(self, n):
        ppm = planted_partition_graph(n, 4, 2 * math.log(n) ** 2 / n, 0.6 / n, seed=n)
        order = np.random.default_rng(n).permutation(n)
        for candidate in (order, np.argsort(ppm.partition.labels, kind="stable")):
            assert _sweep_cut_conductance(ppm.graph, candidate) == loop_sweep_conductance(
                ppm.graph, candidate
            )
