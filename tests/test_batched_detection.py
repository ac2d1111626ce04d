"""End-to-end equivalence of the batched CDRW driver with the sequential loop."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunConfig, detect
from repro.core import BatchedMixingSetSearch, CDRWParameters
from repro.core.result import DetectionResult
from repro.exceptions import AlgorithmError
from repro.graphs import Graph, gnp_random_graph, planted_partition_graph, random_regular_graph
from repro.randomwalk import BatchedWalkDistribution


@pytest.fixture(scope="module")
def ppm():
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


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def outcomes(report) -> list[tuple]:
    """What a detection reports besides its per-step trace."""
    return [
        (result.seed, result.community, result.walk_length, result.stop_reason, result.delta)
        for result in report.detection.communities
    ]


def history_on_and_off(graph, backend, params=None, **config) -> tuple[list, list]:
    reports = [
        detect(
            graph,
            backend,
            params,
            RunConfig(capture_history=capture, **config),
            delta_hint=0.05,
        )
        for capture in (True, False)
    ]
    assert all(result.history for result in reports[0].detection.communities)
    assert not any(result.history for result in reports[1].detection.communities)
    return outcomes(reports[0]), outcomes(reports[1])


@pytest.fixture()
def search_calls(monkeypatch):
    """Every ``largest_mixing_sets`` call as ``(walk_length, distributions, results)``."""
    calls = []
    original = BatchedMixingSetSearch.largest_mixing_sets

    def spy(self, distributions, walk_length):
        results = original(self, distributions, walk_length)
        calls.append((walk_length, np.array(distributions), results))
        return results

    monkeypatch.setattr(BatchedMixingSetSearch, "largest_mixing_sets", spy)
    return calls


#: Pinned graphs, one per branch of the deferred length-1 search, with the
#: stop reason that shows the branch was taken.
PINNED = {
    # S_2 is found: S_1 is searched late, and the walk stops at length 2.
    "complete64": (lambda: complete_graph(64), None, "growth"),
    # Nothing is found at length 2: the budget ends and S_1 is the fallback.
    "regular128/max2": (
        lambda: random_regular_graph(128, 8, seed=3),
        CDRWParameters(max_walk_length=2),
        "walk length budget exhausted",
    ),
    "regular128/max1": (
        lambda: random_regular_graph(128, 8, seed=3),
        CDRWParameters(max_walk_length=1),
        "walk length budget exhausted",
    ),
    # Found only at length 9, and nothing at all within a budget of 8.
    "cycle64": (lambda: cycle_graph(64), None, "walk length budget exhausted"),
    "cycle64/max8": (
        lambda: cycle_graph(64),
        CDRWParameters(max_walk_length=8),
        "no mixing set found",
    ),
    # The benchmark's PPM shape: S_2 is found for no seed, S_1 never searched.
    "ppm512": (
        lambda: planted_partition_graph(
            512, 4, 2 * math.log(512) ** 2 / 512, 0.6 / 512, seed=1
        ).graph,
        None,
        "growth",
    ),
}


class TestDeferredFirstSet:
    """History off searches S_1 only for the walks that read it; outputs are unchanged."""

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_history_off_matches_history_on(self, case):
        build, params, reason = PINNED[case]
        graph = build()
        seeds = tuple(range(0, graph.num_vertices, graph.num_vertices // 8))
        on, off = history_on_and_off(graph, "batched", params, seeds=seeds, batch_size=4)
        assert off == on
        assert all(stop_reason.startswith(reason) for *_rest, stop_reason, _delta in on)
        if params is not None:
            assert {walk_length for _s, _c, walk_length, *_rest in on} == {
                params.max_walk_length
            }

    @given(
        kind=st.sampled_from(["random", "regular", "ppm"]),
        num_vertices=st.integers(16, 64),
        graph_seed=st.integers(0, 2**16),
        max_walk_length=st.sampled_from([None, 1, 2, 3]),
        tier=st.sampled_from(["scalar", "batched", "process"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_history_off_matches_history_on_swept(
        self, kind, num_vertices, graph_seed, max_walk_length, tier
    ):
        num_vertices -= num_vertices % 2  # two equal PPM blocks
        if kind == "random":
            graph = gnp_random_graph(num_vertices, 0.15, seed=graph_seed)
        elif kind == "regular":
            graph = random_regular_graph(num_vertices, 4, seed=graph_seed)
        else:
            instance = planted_partition_graph(num_vertices, 2, 0.5, 0.05, seed=graph_seed)
            graph = instance.graph
        config = {"seed": graph_seed, "max_seeds": 6, "batch_size": 3}
        if tier == "process":
            config.update(executor="process", workers=2)
        backend = "scalar" if tier == "scalar" else "batched"
        params = CDRWParameters(max_walk_length=max_walk_length)
        on, off = history_on_and_off(graph, backend, params, **config)
        assert off == on

    def test_no_length_one_search_when_no_walk_finds_s2(self, search_calls):
        build, _params, _reason = PINNED["ppm512"]
        graph = build()
        seeds = tuple(range(0, 512, 64))
        report = detect(
            graph,
            "batched",
            # The spy sees the calling process only.
            config=RunConfig(
                seeds=seeds, batch_size=len(seeds), capture_history=False, executor="thread"
            ),
            delta_hint=0.05,
        )
        lengths = [walk_length for walk_length, _distributions, _results in search_calls]
        assert lengths[0] == 2
        assert not any(result.found for result in search_calls[0][2])
        assert 1 not in lengths
        assert all(r.stop_reason.startswith("growth") for r in report.detection.communities)

    def test_length_one_search_covers_exactly_the_walks_that_read_s1(self, search_calls):
        # A 32-clique next to a 64-cycle: walks from the clique find S_2 and
        # stop there; walks on the cycle find nothing within the budget, so
        # they search S_1 as their fallback.
        clique = complete_graph(32).edge_array()
        graph = Graph.from_edge_array(96, np.vstack([clique, cycle_graph(64).edge_array() + 32]))
        seeds = (40, 0, 50, 31, 70, 5)
        report = detect(
            graph,
            "batched",
            # The spy sees the calling process only.
            config=RunConfig(
                seeds=seeds, batch_size=len(seeds), capture_history=False, executor="thread"
            ),
            delta_hint=0.05,
        )
        lengths = [walk_length for walk_length, _distributions, _results in search_calls]
        assert lengths[:2] == [2, 1] and lengths[-1] == 1 and lengths.count(1) == 2
        readers = [seed for seed, result in zip(seeds, search_calls[0][2]) if result.found]
        assert readers == [0, 31, 5]
        for (_length, firsts, _results), walkers in zip(
            (search_calls[1], search_calls[-1]), (readers, [40, 50, 70])
        ):
            assert np.array_equal(firsts, BatchedWalkDistribution(graph, walkers).step())
        assert [r.walk_length for r in report.detection.communities] == [20, 2, 20, 2, 20, 2]
