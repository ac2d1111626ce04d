"""Tests for the batched parallel detection path and its conflict resolution.

Covers the regression for the previously missing overlap-resolution step
(surviving communities must be pairwise disjoint), exact equivalence of the
ported ``"parallel"`` backend with a scalar reference implementation, the ``capture_distributions`` plumbing, and the
``select_spread_seeds`` fallback fixes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import RunConfig, detect
from repro.core import CDRWParameters, select_spread_seeds
from repro.core.result import CommunityResult, DetectionResult
from repro.graphs import Graph, ppm_expected_conductance
from repro.graphs.traversal import shortest_path_length
from repro.randomwalk import WalkDistribution


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a and not b:
        return 1.0
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def assert_pairwise_disjoint(detection: DetectionResult) -> None:
    communities = detection.detected_sets()
    for i in range(len(communities)):
        for j in range(i + 1, len(communities)):
            overlap = communities[i] & communities[j]
            assert not overlap, (
                f"communities {i} and {j} overlap after resolution: {sorted(overlap)}"
            )


def reference_parallel(
    graph: Graph,
    num_communities: int,
    delta_hint: float,
    seed: int,
    overlap_merge_threshold: float = 0.5,
    seed_min_distance: int = 2,
) -> DetectionResult:
    """Scalar re-implementation of the parallel path (per-seed walks, same rules)."""
    from dataclasses import replace

    rng = np.random.default_rng(seed)
    seeds = select_spread_seeds(
        graph, num_communities, min_distance=seed_min_distance, seed=rng
    )
    raw = [
        detect(graph, "scalar", config=RunConfig(seeds=(s,)), delta_hint=delta_hint)
        .detection.communities[0]
        for s in seeds
    ]

    survivors: list[int] = []
    for index, result in enumerate(raw):
        if not any(
            _jaccard(result.community, raw[kept].community) >= overlap_merge_threshold
            for kept in survivors
        ):
            survivors.append(index)

    finals = {}
    for index in survivors:
        walk = WalkDistribution(graph, raw[index].seed)
        walk.run_to(raw[index].walk_length)
        finals[index] = np.array(walk.probabilities())

    claimants: dict[int, list[int]] = {}
    for position, index in enumerate(survivors):
        for vertex in raw[index].community:
            claimants.setdefault(vertex, []).append(position)
    own_seed = {raw[index].seed: position for position, index in enumerate(survivors)}
    members = [set(raw[index].community) for index in survivors]
    for vertex, positions in claimants.items():
        if len(positions) < 2:
            continue
        if own_seed.get(vertex) in positions:
            winner = own_seed[vertex]
        else:
            winner = max(
                positions,
                key=lambda p: (finals[survivors[p]][vertex], -p),
            )
        for position in positions:
            if position != winner:
                members[position].discard(vertex)

    resolved: list[CommunityResult] = []
    for position, index in enumerate(survivors):
        resolved.append(replace(raw[index], community=frozenset(members[position])))
    return DetectionResult(num_vertices=graph.num_vertices, communities=tuple(resolved))


class TestOverlapResolutionRegression:
    def test_two_seeds_in_same_block_yield_disjoint_communities(self, two_cliques_graph):
        """Regression: the docstring's step 3 used to be silently skipped.

        With spacing disabled, several seeds land in the same clique; after
        duplicate-merge the survivors previously could still overlap (e.g.
        through the bridge vertices).  Resolution must make them disjoint.
        """
        for seed in range(6):
            detection = detect(
                two_cliques_graph,
                "parallel",
                CDRWParameters(initial_size=2),
                RunConfig(seed=seed, num_communities=4, seed_min_distance=0),
                delta_hint=1 / 21,
            ).detection
            assert_pairwise_disjoint(detection)

    def test_disjoint_on_ppm_with_excess_seeds(self, small_ppm):
        graph = small_ppm.graph
        delta = ppm_expected_conductance(
            graph.num_vertices, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        for seed in (0, 4, 9):
            config = RunConfig(seed=seed, num_communities=4)
            detection = detect(graph, "parallel", config=config, delta_hint=delta).detection
            assert_pairwise_disjoint(detection)

    def test_every_surviving_community_keeps_its_seed(self, small_ppm):
        graph = small_ppm.graph
        config = RunConfig(seed=3, num_communities=4)
        detection = detect(graph, "parallel", config=config, delta_hint=0.05).detection
        for result in detection.communities:
            assert result.seed in result.community

    def test_accuracy_preserved_after_resolution(self, small_ppm):
        graph, truth = small_ppm.graph, small_ppm.partition
        delta = ppm_expected_conductance(
            graph.num_vertices, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        from repro.metrics import average_f_score

        config = RunConfig(seed=4, num_communities=2)
        detection = detect(graph, "parallel", config=config, delta_hint=delta).detection
        assert average_f_score(detection, truth) > 0.8


class TestPortedParallelEquivalence:
    @pytest.mark.parametrize("seed", [0, 7, 21])
    def test_identical_to_scalar_reference_on_ppm(self, small_ppm, seed):
        """The batched port must reproduce the scalar reference exactly."""
        graph = small_ppm.graph
        delta = 0.05
        expected = reference_parallel(graph, 3, delta, seed)
        config = RunConfig(seed=seed, num_communities=3)
        actual = detect(graph, "parallel", config=config, delta_hint=delta)
        assert actual.detection == expected

    def test_identical_to_scalar_reference_on_two_cliques(self, two_cliques_graph):
        for seed in range(4):
            expected = reference_parallel(
                two_cliques_graph, 2, 1 / 21, seed, seed_min_distance=0
            )
            config = RunConfig(seed=seed, num_communities=2, seed_min_distance=0)
            actual = detect(two_cliques_graph, "parallel", config=config, delta_hint=1 / 21)
            # The reference rebuilds every CommunityResult via replace(); the
            # ported path keeps untouched results identical as well.
            assert actual.detection == expected


class TestCaptureDistributions:
    def test_final_distributions_match_scalar_walks(self, small_ppm):
        graph = small_ppm.graph
        seeds = (0, 40, 200)
        config = RunConfig(seeds=seeds, batch_size=len(seeds), capture_distributions=True)
        report = detect(graph, "batched", config=config, delta_hint=0.05)
        finals = report.native_result
        assert finals.shape == (graph.num_vertices, len(seeds))
        for j, result in enumerate(report.detection.communities):
            walk = WalkDistribution(graph, result.seed)
            walk.run_to(result.walk_length)
            assert np.array_equal(finals[:, j], walk.probabilities())

    def test_edgeless_graph_one_hot(self):
        graph = Graph(4, [])
        config = RunConfig(seeds=(0, 3), batch_size=2, capture_distributions=True)
        report = detect(graph, "batched", config=config)
        assert [r.community for r in report.detection.communities] == [
            frozenset({0}),
            frozenset({3}),
        ]
        expected = np.zeros((4, 2))
        expected[0, 0] = expected[3, 1] = 1.0
        assert np.array_equal(report.native_result, expected)

    def test_empty_seed_list(self, two_cliques_graph):
        config = RunConfig(seeds=(), capture_distributions=True)
        report = detect(two_cliques_graph, "batched", config=config)
        assert report.detection.communities == ()
        assert report.native_result.shape == (10, 0)


class TestSpreadSeedFallbackFixes:
    @pytest.fixture(scope="class")
    def three_triangles(self) -> Graph:
        edges = []
        for offset in (0, 3, 6):
            edges += [(offset, offset + 1), (offset + 1, offset + 2), (offset, offset + 2)]
        return Graph(9, edges)

    @pytest.fixture(scope="class")
    def clique_plus_isolated(self) -> Graph:
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        return Graph(6, edges)  # K5 on 0-4 plus the isolated vertex 5

    def test_no_attempts_burned_on_blocked_redraws(self, three_triangles):
        """Regression: valid spread seeds exist but used to need luck to find.

        One seed per triangle satisfies min_distance=3.  The old rejection
        loop burned an attempt per blocked redraw, so with a tight
        ``max_attempts`` it fell back to arbitrary (violating) seeds; the
        fixed draw only ever samples still-valid vertices.
        """
        for seed in range(10):
            seeds = select_spread_seeds(
                three_triangles, 3, min_distance=3, seed=seed
            )
            triangles = {s // 3 for s in seeds}
            assert triangles == {0, 1, 2}, seeds

    def test_fallback_prefers_unblocked_vertices(self, clique_plus_isolated):
        """Regression: the fallback ignored ``blocked`` and could violate spacing.

        With the former ``max_attempts=1`` knob the main loop picked one seed;
        the second came from the fallback.  A vertex at distance >= 2 from the first
        always exists (the isolated vertex, or any K5 vertex when the first
        draw was the isolated one), so the fallback must never return an
        adjacent pair.
        """
        for seed in range(20):
            first, second = select_spread_seeds(
                clique_plus_isolated, 2, min_distance=2, seed=seed
            )
            distance = shortest_path_length(clique_plus_isolated, first, second)
            # -1 means unreachable, i.e. infinitely far apart.
            assert distance == -1 or distance >= 2, (first, second)

    def test_fallback_extras_are_pairwise_spread(self, three_triangles):
        """Regression: the fallback drew its extras in one batch, so two of
        them could violate the spacing *with each other* even though spread
        vertices remained.  With the former ``max_attempts=1`` knob the main
        loop placed one seed; the draws must still land one per triangle.
        """
        for seed in range(10):
            seeds = select_spread_seeds(
                three_triangles, 3, min_distance=3, seed=seed
            )
            triangles = {s // 3 for s in seeds}
            assert triangles == {0, 1, 2}, seeds

    def test_relaxation_still_fills_the_count(self, triangle_graph):
        # Only one spread seed can exist at min_distance=2 in a triangle; the
        # remaining two must come from the relaxed fallback, still distinct.
        seeds = select_spread_seeds(triangle_graph, 3, min_distance=2, seed=0)
        assert sorted(seeds) == [0, 1, 2]

    def test_deterministic_given_seed(self, small_ppm):
        a = select_spread_seeds(small_ppm.graph, 5, seed=8)
        b = select_spread_seeds(small_ppm.graph, 5, seed=8)
        assert a == b
        assert len(set(a)) == 5


class TestMinDistanceZeroFastPath:
    """``min_distance=0`` collapses to one draw without replacement.

    This is the deliberate RNG refresh the ROADMAP flagged: no spacing
    constraint means no draw blocks any other vertex, so the O(count·n)
    rescan loop is replaced by a single ``rng.choice(n, size, replace=False)``
    whose draw sequence these tests pin down.
    """

    def test_matches_single_choice_draw(self, small_ppm):
        n = small_ppm.graph.num_vertices
        for seed in (0, 8, 123):
            seeds = select_spread_seeds(small_ppm.graph, 6, min_distance=0, seed=seed)
            expected = np.random.default_rng(seed).choice(n, size=6, replace=False)
            assert seeds == [int(v) for v in expected]

    def test_distinct_and_complete(self, small_ppm):
        seeds = select_spread_seeds(small_ppm.graph, 10, min_distance=0, seed=4)
        assert len(seeds) == len(set(seeds)) == 10

    def test_full_graph_draw_is_a_permutation(self, triangle_graph):
        seeds = select_spread_seeds(triangle_graph, 3, min_distance=0, seed=1)
        assert sorted(seeds) == [0, 1, 2]
