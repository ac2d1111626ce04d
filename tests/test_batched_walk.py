"""BatchedWalkDistribution vs WalkDistribution: step-for-step equivalence."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import RandomWalkError
from repro.graphs import Graph, planted_partition_graph
from repro.randomwalk import BatchedWalkDistribution, WalkDistribution
from repro.randomwalk.batched import transition_operator


@pytest.fixture(scope="module")
def ppm_graph():
    n = 256
    return planted_partition_graph(n, 2, 3 * math.log(n) ** 2 / n, 1.0 / n, seed=7).graph


@pytest.fixture(scope="module")
def ppm4_graph():
    n = 512
    return planted_partition_graph(n, 4, 3 * math.log(n) ** 2 / n, 1.0 / n, seed=11).graph


class TestEquivalence:
    @pytest.mark.parametrize("lazy", [False, True])
    def test_matches_scalar_walks_step_for_step(self, ppm_graph, ppm4_graph, lazy):
        # Duplicate seeds are allowed.
        for graph, seeds in (
            (ppm_graph, [0, 17, 130, 255, 17]),
            (ppm4_graph, [0, 101, 300, 499, 101]),
        ):
            batched = BatchedWalkDistribution(graph, seeds, lazy=lazy)
            scalars = [WalkDistribution(graph, s, lazy=lazy) for s in seeds]
            for _ in range(12):
                batched.step()
                for walk in scalars:
                    walk.step()
                for j, walk in enumerate(scalars):
                    # The SpMM columns are bit-identical to scalar mat-vecs
                    # (well inside the 1e-12 tolerance the equivalence spec
                    # requires).
                    assert np.array_equal(batched.column(j), walk.probabilities())

    @pytest.mark.parametrize("lazy", [False, True])
    def test_first_step_is_bit_identical_to_the_operator_product(self, ppm_graph, lazy):
        # The last vertex is isolated; duplicate sources are separate walks.
        n = ppm_graph.num_vertices + 1
        graph = Graph.from_edge_array(n, ppm_graph.edge_array())
        seeds = [0, 17, n - 1, 130, 17]
        batched = BatchedWalkDistribution(graph, seeds, lazy=lazy)
        expected = transition_operator(graph, lazy) @ batched.probabilities()
        first = batched.step()
        # Equal bytes: equal floats, and +0.0 wherever the product has it.
        assert first.shape == expected.shape and first.tobytes() == expected.tobytes()
        assert first[:, 2].sum() == (0.5 if lazy else 0.0)  # the isolated seed's column
        batched.step(2)
        selected = batched.first_step_columns([4, 2, 0])
        assert selected.tobytes() == np.ascontiguousarray(expected[:, [4, 2, 0]]).tobytes()
        assert batched.steps == 3 and not selected.flags.writeable
        with pytest.raises(RandomWalkError):
            batched.first_step_columns([5])

    def test_initial_state_is_indicator(self, two_cliques_graph):
        batched = BatchedWalkDistribution(two_cliques_graph, [2, 9])
        matrix = batched.probabilities()
        assert matrix.shape == (10, 2)
        assert matrix[2, 0] == 1.0 and matrix[9, 1] == 1.0
        assert matrix.sum() == 2.0
        assert batched.steps == 0

    def test_mass_in_matches_scalar(self, ppm_graph):
        seeds = [3, 200]
        batched = BatchedWalkDistribution(ppm_graph, seeds)
        scalars = [WalkDistribution(ppm_graph, s) for s in seeds]
        batched.step(5)
        for walk in scalars:
            walk.step(5)
        subset = list(range(0, 128))
        masses = batched.mass_in(subset)
        for j, walk in enumerate(scalars):
            assert masses[j] == pytest.approx(walk.mass_in(subset), abs=0.0)

    def test_columns_match_column(self, ppm4_graph):
        batched = BatchedWalkDistribution(ppm4_graph, [3, 7, 11, 13, 17])
        batched.step(5)
        selected = batched.columns([4, 0, 2])
        assert selected.shape == (ppm4_graph.num_vertices, 3)
        assert selected.flags["C_CONTIGUOUS"]
        assert not selected.flags.writeable
        for position, walk in enumerate([4, 0, 2]):
            assert np.array_equal(selected[:, position], batched.column(walk))
        with pytest.raises(RandomWalkError):
            batched.columns([5])

    def test_run_to_and_restart(self, two_cliques_graph):
        batched = BatchedWalkDistribution(two_cliques_graph, [0, 5])
        fresh = BatchedWalkDistribution(two_cliques_graph, [0, 5])
        batched.run_to(4)
        assert batched.steps == 4
        batched.restart()
        assert batched.steps == 0
        assert batched.probabilities()[0, 0] == 1.0
        assert np.array_equal(batched.probabilities(), fresh.probabilities())
        # A restarted walk replays the same floats as a fresh one.
        batched.step(3)
        fresh.step(3)
        assert np.array_equal(batched.probabilities(), fresh.probabilities())


class TestRetain:
    def test_retain_narrows_batch(self, ppm_graph):
        seeds = [1, 2, 3, 4]
        batched = BatchedWalkDistribution(ppm_graph, seeds)
        batched.step(3)
        expected = [WalkDistribution(ppm_graph, s) for s in seeds]
        for walk in expected:
            walk.step(3)
        batched.retain([0, 2])
        assert batched.sources == (1, 3)
        assert batched.num_walks == 2
        batched.step()
        expected[0].step()
        expected[2].step()
        assert np.array_equal(batched.column(0), expected[0].probabilities())
        assert np.array_equal(batched.column(1), expected[2].probabilities())
        # One contiguous matrix is what lets the next SpMM read it uncopied.
        assert batched.probabilities().flags["C_CONTIGUOUS"]

    def test_retain_rejects_bad_indices(self, two_cliques_graph):
        batched = BatchedWalkDistribution(two_cliques_graph, [0, 5])
        with pytest.raises(RandomWalkError):
            batched.retain([])
        with pytest.raises(RandomWalkError):
            batched.retain([5])


class TestValidation:
    def test_empty_sources_rejected(self, two_cliques_graph):
        with pytest.raises(RandomWalkError):
            BatchedWalkDistribution(two_cliques_graph, [])

    def test_out_of_range_source_rejected(self, two_cliques_graph):
        with pytest.raises(RandomWalkError):
            BatchedWalkDistribution(two_cliques_graph, [0, 99])

    def test_negative_step_rejected(self, two_cliques_graph):
        batched = BatchedWalkDistribution(two_cliques_graph, [0])
        with pytest.raises(RandomWalkError):
            batched.step(-1)

    def test_run_to_cannot_rewind(self, two_cliques_graph):
        batched = BatchedWalkDistribution(two_cliques_graph, [0])
        batched.step(3)
        with pytest.raises(RandomWalkError):
            batched.run_to(1)

    def test_column_out_of_range(self, two_cliques_graph):
        batched = BatchedWalkDistribution(two_cliques_graph, [0])
        with pytest.raises(RandomWalkError):
            batched.column(1)

    def test_views_read_only(self, two_cliques_graph):
        batched = BatchedWalkDistribution(two_cliques_graph, [0, 1])
        with pytest.raises(ValueError):
            batched.probabilities()[0, 0] = 2.0
        with pytest.raises(ValueError):
            batched.column(0)[0] = 2.0
