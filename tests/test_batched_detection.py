"""End-to-end equivalence of the batched CDRW driver with the sequential loop."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import RunConfig, detect
from repro.core import CDRWParameters
from repro.core.result import DetectionResult
from repro.exceptions import AlgorithmError
from repro.graphs import Graph


@pytest.fixture(scope="module")
def ppm():
    from repro.graphs import planted_partition_graph

    n = 256
    return planted_partition_graph(n, 2, 3 * math.log(n) ** 2 / n, 1.0 / n, seed=7)


class TestDetectCommunityBatch:
    def test_identical_to_scalar_map_on_ppm(self, ppm, scalar_community):
        seeds = (0, 10, 130, 200, 10)  # includes a duplicate
        config = RunConfig(seeds=seeds, batch_size=len(seeds))
        results = detect(ppm.graph, "batched", config=config, delta_hint=0.05)
        for seed_vertex, result in zip(seeds, results.detection.communities):
            assert result == scalar_community(ppm.graph, seed_vertex, delta_hint=0.05)

    def test_identical_to_scalar_map_on_two_cliques(self, two_cliques_graph, scalar_community):
        parameters = CDRWParameters(initial_size=2)
        seeds = tuple(range(10))
        config = RunConfig(seeds=seeds, batch_size=len(seeds))
        results = detect(two_cliques_graph, "batched", parameters, config, delta_hint=1 / 21)
        for seed_vertex, result in zip(seeds, results.detection.communities):
            expected = scalar_community(
                two_cliques_graph, seed_vertex, parameters, delta_hint=1 / 21
            )
            assert result == expected

    def test_empty_seed_list(self, two_cliques_graph):
        report = detect(two_cliques_graph, "batched", config=RunConfig(seeds=()))
        assert report.detection.communities == ()

    def test_edgeless_graph_fast_path(self):
        graph = Graph(4, [])
        config = RunConfig(seeds=(0, 3), batch_size=2)
        results = detect(graph, "batched", config=config).detection.communities
        assert [r.community for r in results] == [frozenset({0}), frozenset({3})]
        assert all(r.stop_reason == "graph has no edges" for r in results)

    def test_isolated_seed_matches_scalar(self, scalar_community):
        graph = Graph(5, [(1, 2), (2, 3)])
        config = RunConfig(seeds=(0, 2), batch_size=2)
        results = detect(graph, "batched", config=config, delta_hint=0.1).detection.communities
        assert results[0] == scalar_community(graph, 0, delta_hint=0.1)
        assert results[1] == scalar_community(graph, 2, delta_hint=0.1)

    def test_invalid_seed_rejected(self, two_cliques_graph):
        with pytest.raises(AlgorithmError):
            detect(two_cliques_graph, "batched", config=RunConfig(seeds=(0, 99)))


class TestDetectCommunitiesBatched:
    def test_fixed_seeds_identical_to_sequential_loop(self, ppm, scalar_community):
        """The satellite e2e guarantee: batched == sequential for fixed seeds."""
        seeds = [5, 60, 140, 250, 33, 199]
        sequential = DetectionResult(
            num_vertices=ppm.graph.num_vertices,
            communities=tuple(
                scalar_community(ppm.graph, s, delta_hint=0.05) for s in seeds
            ),
        )
        for batch_size in (1, 2, 4, len(seeds), len(seeds) + 3):
            config = RunConfig(seeds=tuple(seeds), batch_size=batch_size)
            batched = detect(ppm.graph, "batched", config=config, delta_hint=0.05)
            assert batched.detection == sequential

    def test_pool_mode_batch_size_one_identical_to_detect_communities(self, ppm):
        sequential = detect(ppm.graph, "scalar", config=RunConfig(seed=11), delta_hint=0.05)
        config = RunConfig(seed=11, batch_size=1)
        batched = detect(ppm.graph, "batched", config=config, delta_hint=0.05)
        assert batched.detection == sequential.detection

    def test_pool_mode_deterministic_and_covering(self, ppm):
        config = RunConfig(seed=4, batch_size=4)
        a = detect(ppm.graph, "batched", config=config, delta_hint=0.05).detection
        b = detect(ppm.graph, "batched", config=config, delta_hint=0.05).detection
        assert a == b
        covered = set()
        for result in a.communities:
            covered |= result.community
            covered.add(result.seed)
        assert covered == set(range(ppm.graph.num_vertices))

    def test_each_pool_result_matches_scalar_detection(self, ppm, scalar_community):
        config = RunConfig(seed=9, batch_size=4)
        detection = detect(ppm.graph, "batched", config=config, delta_hint=0.05).detection
        for result in detection.communities:
            assert result == scalar_community(ppm.graph, result.seed, delta_hint=0.05)

    def test_max_seeds_cap(self, ppm):
        config = RunConfig(seed=2, batch_size=4, max_seeds=3)
        detection = detect(ppm.graph, "batched", config=config, delta_hint=0.05).detection
        assert len(detection.communities) <= 3

    def test_max_seeds_cap_with_explicit_seeds(self, ppm):
        config = RunConfig(seeds=(1, 2, 3, 4), max_seeds=2, batch_size=8)
        detection = detect(ppm.graph, "batched", config=config, delta_hint=0.05).detection
        assert [r.seed for r in detection.communities] == [1, 2]

    def test_empty_graph(self):
        report = detect(Graph(0, []), "batched", config=RunConfig(batch_size=4))
        assert report.detection.communities == ()

    def test_invalid_batch_size(self, two_cliques_graph):
        with pytest.raises(AlgorithmError):
            detect(two_cliques_graph, "batched", config=RunConfig(batch_size=0))


class TestSeedDrawRegression:
    def test_pool_draw_sequence_matches_sorted_set_semantics(self, ppm, scalar_community):
        """The boolean-mask pool must draw the exact seeds `sorted(set)` drew.

        Replays the original implementation (a Python set pool, sorted before
        every draw) next to the ``"scalar"`` backend with the same RNG seed
        and asserts the drawn seed sequence is identical.
        """
        rng = np.random.default_rng(11)
        pool = set(range(ppm.graph.num_vertices))
        expected_order = []
        while pool:
            seed_vertex = int(rng.choice(sorted(pool)))
            result = scalar_community(ppm.graph, seed_vertex, delta_hint=0.05)
            expected_order.append(seed_vertex)
            detected = result.community if result.community else frozenset({seed_vertex})
            pool.difference_update(detected)
            pool.discard(seed_vertex)

        detection = detect(ppm.graph, "scalar", config=RunConfig(seed=11), delta_hint=0.05)
        assert [r.seed for r in detection.detection.communities] == expected_order
