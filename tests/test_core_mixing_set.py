"""Tests for the localized largest-mixing-set search and CDRW parameters.

The search runs one walk distribution at a time here, as the scalar and
k-machine backends do: a one-column call of :class:`BatchedMixingSetSearch`.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import BatchedMixingSetSearch, CDRWParameters, deviation_values
from repro.exceptions import AlgorithmError
from repro.graphs import Graph
from repro.randomwalk import WalkDistribution, stationary_distribution
from repro.utils import MIXING_THRESHOLD


class TestCdrwParameters:
    def test_defaults_match_paper(self):
        parameters = CDRWParameters()
        assert parameters.mixing_threshold == pytest.approx(1 / (2 * math.e))
        assert parameters.growth_factor == pytest.approx(1 + 1 / (8 * math.e))
        assert parameters.size_schedule == "geometric"

    def test_resolve_initial_size_is_log_n(self, small_gnp_graph):
        parameters = CDRWParameters()
        n = small_gnp_graph.num_vertices
        assert parameters.resolve_initial_size(small_gnp_graph) == round(math.log(n))

    def test_resolve_initial_size_override_and_clamp(self, triangle_graph):
        assert CDRWParameters(initial_size=2).resolve_initial_size(triangle_graph) == 2
        assert CDRWParameters(initial_size=50).resolve_initial_size(triangle_graph) == 3

    def test_resolve_max_walk_length_scales_with_log(self, small_gnp_graph):
        parameters = CDRWParameters(walk_length_factor=4)
        expected = 4 * math.ceil(math.log(small_gnp_graph.num_vertices))
        assert parameters.resolve_max_walk_length(small_gnp_graph) == expected
        assert CDRWParameters(max_walk_length=9).resolve_max_walk_length(small_gnp_graph) == 9

    def test_resolve_delta_priority(self, two_cliques_graph):
        explicit = CDRWParameters(delta=0.3)
        assert explicit.resolve_delta(two_cliques_graph, delta_hint=0.7) == 0.3
        hinted = CDRWParameters()
        assert hinted.resolve_delta(two_cliques_graph, delta_hint=0.4) == 0.4
        estimated = CDRWParameters()
        assert estimated.resolve_delta(two_cliques_graph) >= estimated.min_delta

    def test_resolve_delta_clamped_by_min_delta(self, two_cliques_graph):
        parameters = CDRWParameters(min_delta=0.05)
        assert parameters.resolve_delta(two_cliques_graph, delta_hint=0.0) == 0.05

    def test_validation_errors(self):
        with pytest.raises(AlgorithmError):
            CDRWParameters(mixing_threshold=0.0)
        with pytest.raises(AlgorithmError):
            CDRWParameters(growth_factor=1.0)
        with pytest.raises(AlgorithmError):
            CDRWParameters(delta=-0.1)
        with pytest.raises(AlgorithmError):
            CDRWParameters(size_schedule="exponential")
        with pytest.raises(AlgorithmError):
            CDRWParameters(min_mass=1.5)
        with pytest.raises(AlgorithmError):
            CDRWParameters(delta=0.1).resolve_delta  # attribute access fine
            CDRWParameters().resolve_delta(Graph(3, []), delta_hint=-1.0)

    def test_with_overrides(self):
        base = CDRWParameters()
        changed = base.with_overrides(delta=0.2, lazy_walk=True)
        assert changed.delta == 0.2
        assert changed.lazy_walk is True
        assert base.delta is None


class TestDeviationValues:
    def test_formula(self, two_cliques_graph):
        walk = WalkDistribution(two_cliques_graph, 0)
        walk.run_to(3)
        size = 5
        values = deviation_values(two_cliques_graph, walk.probabilities(), size)
        average_volume = two_cliques_graph.volume / 10 * size
        expected = np.abs(
            walk.probabilities() - two_cliques_graph.degrees() / average_volume
        )
        assert np.allclose(values, expected)

    def test_invalid_inputs(self, two_cliques_graph):
        walk = WalkDistribution(two_cliques_graph, 0)
        with pytest.raises(AlgorithmError):
            deviation_values(two_cliques_graph, walk.probabilities(), 0)
        with pytest.raises(AlgorithmError):
            deviation_values(two_cliques_graph, np.zeros(3), 5)
        with pytest.raises(AlgorithmError):
            deviation_values(Graph(3, []), np.zeros(3), 1)


def search_one(search: BatchedMixingSetSearch, distribution: np.ndarray, length: int):
    """Search one walk distribution (a width-1 call, as the scalar backend makes)."""
    return search.largest_mixing_sets(np.asarray(distribution)[:, None], length)[0]


class TestMixingDeficitForSize:
    def test_full_size_at_stationarity_has_zero_deficit(self, two_cliques_graph):
        # initial_size = n leaves the full vertex set as the only candidate.
        search = BatchedMixingSetSearch(two_cliques_graph, initial_size=10)
        result = search_one(search, stationary_distribution(two_cliques_graph), 1)
        assert result.sizes_examined == 1
        assert result.deficit == pytest.approx(0.0, abs=1e-12)
        assert result.mass == pytest.approx(1.0)
        assert len(result.members) == 10

    def test_selects_smallest_deviations(self, two_cliques_graph):
        walk = WalkDistribution(two_cliques_graph, 1)
        walk.run_to(3)
        p = walk.probabilities()
        result = search_one(BatchedMixingSetSearch(two_cliques_graph, initial_size=2), p, 3)
        assert result.size == 5
        values = deviation_values(two_cliques_graph, p, result.size)
        members = sorted(result.members)
        outside = sorted(set(range(10)) - result.members)
        assert values[members].max() <= values[outside].min()
        assert result.deficit == pytest.approx(np.sort(values)[:5].sum())
        assert result.mass == pytest.approx(p[members].sum())


class TestMixingSetSearch:
    def test_finds_clique_after_mixing(self, two_cliques_graph):
        # Start from a non-bridge vertex: the walk mixes inside its 5-clique
        # within a few steps, and some walk length must exhibit a mixing set
        # covering (at least) that clique.
        search = BatchedMixingSetSearch(two_cliques_graph, initial_size=2)
        walk = WalkDistribution(two_cliques_graph, 1)
        best = None
        for length in range(1, 12):
            walk.step()
            result = search_one(search, walk.probabilities(), length)
            if result.found and (best is None or result.size > best.size):
                best = result
        assert best is not None
        assert best.size >= 5
        assert best.deficit < MIXING_THRESHOLD
        assert best.mass >= 0.5

    def test_finds_whole_graph_at_stationarity(self, two_cliques_graph):
        search = BatchedMixingSetSearch(two_cliques_graph, initial_size=2)
        result = search_one(search, stationary_distribution(two_cliques_graph), 100)
        assert result.size == 10

    def test_initial_distribution_finds_nothing(self, two_cliques_graph):
        search = BatchedMixingSetSearch(two_cliques_graph, initial_size=2)
        walk = WalkDistribution(two_cliques_graph, 0)
        result = search_one(search, walk.probabilities(), 0)
        assert not result.found
        assert result.members == frozenset()

    def test_mass_condition_rejects_low_mass_sets(self, two_cliques_graph):
        # With min_mass=1.0 nothing short of the full stationary distribution passes.
        search = BatchedMixingSetSearch(two_cliques_graph, initial_size=2, min_mass=1.0)
        walk = WalkDistribution(two_cliques_graph, 0)
        walk.run_to(4)
        strict = search_one(search, walk.probabilities(), 4)
        relaxed = BatchedMixingSetSearch(two_cliques_graph, initial_size=2, min_mass=0.0)
        loose = search_one(relaxed, walk.probabilities(), 4)
        assert strict.size <= loose.size

    def test_candidate_sizes_schedules(self, two_cliques_graph):
        geometric = BatchedMixingSetSearch(two_cliques_graph, initial_size=2)
        linear = BatchedMixingSetSearch(two_cliques_graph, initial_size=2, schedule="linear")
        assert geometric.candidate_sizes[0] == 2
        assert geometric.candidate_sizes[-1] == 10
        assert linear.candidate_sizes == list(range(2, 11))

    def test_geometric_and_linear_agree_on_small_graph(self, two_cliques_graph):
        walk = WalkDistribution(two_cliques_graph, 0)
        walk.run_to(6)
        geometric = BatchedMixingSetSearch(two_cliques_graph, initial_size=2)
        linear = BatchedMixingSetSearch(two_cliques_graph, initial_size=2, schedule="linear")
        a = search_one(geometric, walk.probabilities(), 6)
        b = search_one(linear, walk.probabilities(), 6)
        # The linear schedule examines every size, so it can only find an
        # equal or larger mixing set.
        assert b.size >= a.size

    def test_stop_at_first_failure_is_more_conservative(self, small_ppm):
        graph = small_ppm.graph
        walk = WalkDistribution(graph, 0)
        walk.run_to(3)
        scan_all = BatchedMixingSetSearch(graph, initial_size=5)
        first_failure = BatchedMixingSetSearch(graph, initial_size=5, stop_at_first_failure=True)
        a = search_one(scan_all, walk.probabilities(), 3)
        b = search_one(first_failure, walk.probabilities(), 3)
        assert b.size <= a.size
        assert b.sizes_examined <= a.sizes_examined == len(scan_all.candidate_sizes)

    def test_invalid_construction(self, two_cliques_graph):
        with pytest.raises(AlgorithmError):
            BatchedMixingSetSearch(two_cliques_graph, initial_size=0)
        with pytest.raises(AlgorithmError):
            BatchedMixingSetSearch(two_cliques_graph, initial_size=2, schedule="bogus")
        with pytest.raises(AlgorithmError):
            BatchedMixingSetSearch(two_cliques_graph, initial_size=2, min_mass=2.0)
        with pytest.raises(AlgorithmError):
            BatchedMixingSetSearch(two_cliques_graph, initial_size=2, mixing_threshold=2.0)
        with pytest.raises(AlgorithmError):
            BatchedMixingSetSearch(Graph(0, []), initial_size=1)
