"""Differential suite: the mixing-set search kernel against a reference oracle.

:class:`BatchedMixingSetSearch` is the only implementation of the size
schedule.  Its reference semantics live here, in
:func:`oracle_largest_mixing_set`: a plain per-size loop that selects each
size's smallest deviations with a 1-D ``argpartition``, sorts the selection
and sums the gathered deviations and masses.  Every kernel column must equal
the oracle **exactly** — same members (including which tied vertices were
chosen), same deficit and mass floats, same ``sizes_examined`` — and must
equal the same column searched alone at width 1.  Dataclass equality covers
all of that at once.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core import BatchedMixingSetSearch, CDRWParameters, LargestMixingSet
from repro.core import mixing_set as mixing_set_module
from repro.exceptions import AlgorithmError
from repro.graphs import Graph, gnp_random_graph, planted_partition_graph
from repro.randomwalk import BatchedWalkDistribution
from repro.utils import GROWTH_FACTOR, MIXING_THRESHOLD, geometric_sizes, linear_sizes, log_size


def oracle_largest_mixing_set(
    graph: Graph,
    distribution: np.ndarray,
    walk_length: int,
    *,
    initial_size: int,
    mixing_threshold: float = MIXING_THRESHOLD,
    growth_factor: float = GROWTH_FACTOR,
    schedule: str = "geometric",
    stop_at_first_failure: bool = False,
    min_mass: float | None = None,
) -> LargestMixingSet:
    """The search of Algorithm 1 lines 12-17, one size at a time on a 1-D vector."""
    n = graph.num_vertices
    initial = min(initial_size, n)
    sizes = (
        geometric_sizes(initial, n, growth_factor)
        if schedule == "geometric"
        else linear_sizes(initial, n)
    )
    if min_mass is None:
        min_mass = max(0.0, 1.0 - 2.0 * mixing_threshold)
    distribution = np.ascontiguousarray(distribution, dtype=np.float64)
    degrees = graph.degrees().astype(np.float64)
    best = LargestMixingSet(walk_length, 0, frozenset(), 0.0, 0.0, 0)
    examined = 0
    for size in sizes:
        examined += 1
        deviations = np.abs(distribution - degrees / (graph.volume / n * size))
        if size >= n:
            chosen = np.arange(n)
        else:
            chosen = np.sort(np.argpartition(deviations, size - 1)[:size])
        deficit = float(deviations[chosen].sum())
        mass = float(distribution[chosen].sum())
        if deficit < mixing_threshold and mass >= min_mass:
            best = LargestMixingSet(
                walk_length, size, frozenset(chosen.tolist()), deficit, mass, 0
            )
        elif deficit >= mixing_threshold and stop_at_first_failure:
            break
    return LargestMixingSet(
        best.walk_length, best.size, best.members, best.deficit, best.mass, examined
    )


def random_distribution_matrix(num_vertices: int, width: int, seed: int) -> np.ndarray:
    """Random column-stochastic matrix (each column a probability vector)."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((num_vertices, width))
    return matrix / matrix.sum(axis=0, keepdims=True)


def tie_heavy_distribution_matrix(num_vertices: int, width: int, seed: int) -> np.ndarray:
    """Columns quantized to very few distinct values: maximally tied deviations."""
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 3, size=(num_vertices, width)).astype(np.float64)
    sums = matrix.sum(axis=0, keepdims=True)
    sums[sums == 0.0] = 1.0
    return matrix / sums


def cycle(n: int) -> Graph:
    """An n-cycle: every vertex has degree 2, so deviation ties are pervasive."""
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


@pytest.fixture(scope="module")
def cycle_graph() -> Graph:
    return cycle(24)


def assert_matches_oracle(graph: Graph, matrix: np.ndarray, **search_kwargs) -> None:
    """Every kernel column equals the oracle and its own width-1 search."""
    search = BatchedMixingSetSearch(graph, **search_kwargs)
    walk_length = 3
    results = search.largest_mixing_sets(matrix, walk_length)
    assert len(results) == matrix.shape[1]
    for j, result in enumerate(results):
        expected = oracle_largest_mixing_set(graph, matrix[:, j], walk_length, **search_kwargs)
        assert result == expected, f"column {j} diverged from the oracle"
        assert search.largest_mixing_sets(matrix[:, j : j + 1], walk_length) == [result]


class TestDifferential:
    @example(
        graph_kind="cycle",
        num_vertices=24,
        graph_seed=9,
        distribution_kind="tie-heavy",
        width=5,
        initial_size=1,
        schedule="linear",
        stop_at_first_failure=False,
        min_mass=0.0,
    )
    @given(
        graph_kind=st.sampled_from(["random", "cycle"]),
        num_vertices=st.integers(6, 40),
        graph_seed=st.integers(0, 2**16),
        distribution_kind=st.sampled_from(["random", "tie-heavy"]),
        width=st.integers(1, 5),
        initial_size=st.integers(1, 6),
        schedule=st.sampled_from(["geometric", "linear"]),
        stop_at_first_failure=st.booleans(),
        min_mass=st.sampled_from([None, 0.0, 0.5, 1.0]),
    )
    @settings(max_examples=80, deadline=None)
    def test_columns_match_oracle_and_width_one(
        self,
        graph_kind,
        num_vertices,
        graph_seed,
        distribution_kind,
        width,
        initial_size,
        schedule,
        stop_at_first_failure,
        min_mass,
    ):
        if graph_kind == "cycle":
            graph = cycle(num_vertices)
        else:
            graph = gnp_random_graph(num_vertices, 0.3, seed=graph_seed)
        assume(graph.num_edges > 0)
        make = (
            random_distribution_matrix
            if distribution_kind == "random"
            else tie_heavy_distribution_matrix
        )
        assert_matches_oracle(
            graph,
            make(num_vertices, width, graph_seed),
            initial_size=initial_size,
            schedule=schedule,
            stop_at_first_failure=stop_at_first_failure,
            min_mass=min_mass,
        )


class CountingNumpy:
    """Stands in for ``np`` inside the kernel and counts its per-size work.

    Every size that takes the exact path (the top size ``n`` included) makes
    one full-row ``np.subtract`` pass, the deviations, and below ``n`` one
    1-D ``np.argpartition``: ``argpartition_calls`` counts the (lane, size)
    pairs whose rejection was not certified.  A certified size makes no
    O(n) pass.  Each certificate evaluation (one run of sizes for one lane)
    makes one ``np.searchsorted``.  The kernel never calls ``np.partition``.
    """

    def __init__(self) -> None:
        self.subtract_calls = 0
        self.partition_calls = 0
        self.argpartition_calls = 0
        self.searchsorted_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, *args, **kwargs):
        self.subtract_calls += 1
        return np.subtract(*args, **kwargs)

    def partition(self, *args, **kwargs):
        self.partition_calls += 1
        return np.partition(*args, **kwargs)

    def argpartition(self, *args, **kwargs):
        self.argpartition_calls += 1
        return np.argpartition(*args, **kwargs)

    def searchsorted(self, *args, **kwargs):
        self.searchsorted_calls += 1
        return np.searchsorted(*args, **kwargs)


@pytest.fixture
def counting_numpy(monkeypatch) -> CountingNumpy:
    counter = CountingNumpy()
    monkeypatch.setattr(mixing_set_module, "np", counter)
    return counter


def cycle_with_isolated_vertices() -> Graph:
    """A 14-cycle plus 6 isolated vertices (0-degree vertices have target 0)."""
    return Graph(20, [(i, (i + 1) % 14) for i in range(14)])


def oracle_accepts(graph: Graph, distribution: np.ndarray, size: int, min_mass: float) -> bool:
    """Whether ``size`` alone passes the mixing test (the oracle's arithmetic)."""
    n = graph.num_vertices
    deviations = np.abs(distribution - graph.degrees() / (graph.volume / n * size))
    chosen = np.arange(n) if size >= n else np.argpartition(deviations, size - 1)[:size]
    return bool(
        deviations[chosen].sum() < MIXING_THRESHOLD and distribution[chosen].sum() >= min_mass
    )


class TestDescendingScan:
    """The default scan runs from the top size down and stops at the first accept."""

    @staticmethod
    def non_monotone_lane(graph: Graph) -> np.ndarray:
        # The stationary distribution with 10% of the mass moved to vertex 0.
        # With min_mass 0 the isolated vertices (deviation 0) accept every
        # size up to 8, the middle sizes fail, 18 and 19 pass again and the
        # top size 20 fails on the displaced mass.
        degrees = graph.degrees().astype(np.float64)
        distribution = 0.9 * degrees / degrees.sum()
        distribution[0] += 0.1
        return distribution

    def test_non_monotone_lane_returns_largest_accepted_size(self, counting_numpy):
        graph = cycle_with_isolated_vertices()
        lane = self.non_monotone_lane(graph)
        accepted = [size for size in range(1, 21) if oracle_accepts(graph, lane, size, 0.0)]
        assert accepted == [1, 2, 3, 4, 5, 6, 7, 8, 18, 19]
        search = BatchedMixingSetSearch(
            graph, initial_size=1, schedule="linear", min_mass=0.0
        )
        (result,) = search.largest_mixing_sets(lane[:, None], 1)
        assert result.size == 19
        assert result.sizes_examined == 20
        assert result == oracle_largest_mixing_set(
            graph, lane, 1, initial_size=1, schedule="linear", min_mass=0.0
        )
        # Sizes 20 (rejected) and 19 (accepted): the descent stops there.
        # One certificate run covers 19 down to 1; 19 is not certified.
        assert counting_numpy.subtract_calls == 2
        assert counting_numpy.partition_calls == 0
        assert counting_numpy.searchsorted_calls == 1
        assert counting_numpy.argpartition_calls == 1

    def test_lane_accepting_only_the_smallest_size(self, counting_numpy):
        # A point mass on a cycle vertex next to one isolated vertex: only
        # size 1 (the isolated vertex, deviation 0) passes.
        graph = Graph(20, [(i, (i + 1) % 19) for i in range(19)])
        lane = np.zeros(20)
        lane[0] = 1.0
        search = BatchedMixingSetSearch(
            graph, initial_size=1, schedule="linear", min_mass=0.0
        )
        (result,) = search.largest_mixing_sets(lane[:, None], 1)
        assert (result.size, result.members) == (1, frozenset({19}))
        assert result.sizes_examined == 20
        assert result == oracle_largest_mixing_set(
            graph, lane, 1, initial_size=1, schedule="linear", min_mass=0.0
        )
        # Sizes 19 down to 2 are certified rejections (their smallest
        # deviations sum far above the threshold) and cost no pass; only
        # the top size 20 and the accepted size 1 take the exact path.
        assert counting_numpy.subtract_calls == 2
        assert counting_numpy.partition_calls == 0
        assert counting_numpy.searchsorted_calls == 1
        assert counting_numpy.argpartition_calls == 1

    def test_accepted_top_size_evaluates_one_size(self, small_ppm, counting_numpy):
        graph = small_ppm.graph
        degrees = graph.degrees().astype(np.float64)
        search = BatchedMixingSetSearch(graph, initial_size=5)
        stationary = np.tile((degrees / degrees.sum())[:, None], (1, 3))
        results = search.largest_mixing_sets(stationary, 2)
        assert [result.size for result in results] == [graph.num_vertices] * 3
        # One exact pass per lane at the top size; no lane is ever sorted.
        assert counting_numpy.subtract_calls == 3
        assert counting_numpy.partition_calls == 0
        assert counting_numpy.searchsorted_calls == 0
        assert counting_numpy.argpartition_calls == 0

    def test_sizes_examined_is_the_whole_schedule(self, small_ppm):
        graph = small_ppm.graph
        search = BatchedMixingSetSearch(graph, initial_size=5)
        walk = BatchedWalkDistribution(graph, [0, 17, 100, 250])
        degrees = graph.degrees().astype(np.float64)
        schedule = len(search.candidate_sizes)
        for length in range(1, 5):
            walk.step()
            matrix = np.column_stack([walk.probabilities(), degrees / degrees.sum()])
            results = search.largest_mixing_sets(matrix, length)
            assert [result.sizes_examined for result in results] == [schedule] * 5

    def test_first_failure_mode_still_ascends(self, counting_numpy):
        graph = cycle_with_isolated_vertices()
        lane = self.non_monotone_lane(graph)
        search = BatchedMixingSetSearch(
            graph,
            initial_size=1,
            schedule="linear",
            stop_at_first_failure=True,
            min_mass=0.0,
        )
        (result,) = search.largest_mixing_sets(lane[:, None], 1)
        # Sizes 1-8 pass and size 9 is the first failure: the scan stops
        # there and never reaches the accepted sizes 18 and 19.
        assert (result.size, result.sizes_examined) == (8, 9)
        assert result == oracle_largest_mixing_set(
            graph,
            lane,
            1,
            initial_size=1,
            schedule="linear",
            stop_at_first_failure=True,
            min_mass=0.0,
        )
        # Sizes 1-9 all take the exact path: none fails by a certified
        # margin before 9, the first failure.
        assert counting_numpy.subtract_calls == 9
        assert counting_numpy.argpartition_calls == 9
        assert counting_numpy.searchsorted_calls == 1

    def test_lanes_retire_independently(self):
        graph = cycle_with_isolated_vertices()
        degrees = graph.degrees().astype(np.float64)
        point = np.zeros(20)
        point[3] = 1.0
        matrix = np.column_stack(
            [self.non_monotone_lane(graph), degrees / degrees.sum(), point, np.full(20, 0.05)]
        )
        assert_matches_oracle(graph, matrix, initial_size=1, schedule="linear", min_mass=0.0)
        assert_matches_oracle(graph, matrix, initial_size=2)


class TestCertifiedRejectionEdge:
    """Sizes whose smallest deviations sum to within a few ulps of the threshold.

    On a 40-cycle every target at size 8 is 1/8, and with growth factor 10
    the schedule is [8, 40] (the top size is never certified).  Vertices
    0-7 hold a lane's 8 smallest deviations; vertex 0 is moved one
    representable step at a time until the id-order sum crosses the
    threshold.  No such lane is certified (its bound cannot exceed its sum
    plus the slack, below the margin), so each takes the exact path (one
    ``argpartition`` each) and must equal the oracle on either side of the
    threshold.
    """

    SIZE = 8
    N = 40

    def id_order_sum(self, graph: Graph, lane: np.ndarray) -> float:
        """The oracle's deficit of ``lane`` at :attr:`SIZE`."""
        targets = graph.degrees() / (graph.volume / self.N * self.SIZE)
        deviations = np.abs(lane - targets)
        chosen = np.sort(np.argpartition(deviations, self.SIZE - 1)[: self.SIZE])
        return float(deviations[chosen].sum())

    def lanes_around_threshold(self, graph: Graph) -> list[np.ndarray]:
        """The last lane summing below the threshold, then the first two at or above it."""
        spread = np.linspace(0.5, 1.5, self.SIZE)  # distinct, untied deviations
        lane = np.zeros(self.N)
        lane[: self.SIZE] = 1.0 / self.SIZE + MIXING_THRESHOLD / self.SIZE * spread
        while self.id_order_sum(graph, lane) >= MIXING_THRESHOLD:
            lane[0] = np.nextafter(lane[0], -np.inf)
        while self.id_order_sum(graph, lane) < MIXING_THRESHOLD:
            lane[0] = np.nextafter(lane[0], np.inf)
        below, above = lane.copy(), lane.copy()
        below[0] = np.nextafter(lane[0], -np.inf)
        above[0] = np.nextafter(lane[0], np.inf)
        return [below, lane, above]

    @pytest.mark.parametrize("stop_at_first_failure", [False, True])
    def test_lanes_at_the_threshold_take_the_exact_path(
        self, stop_at_first_failure, counting_numpy
    ):
        graph = cycle(self.N)
        edge = self.lanes_around_threshold(graph)
        sums = [self.id_order_sum(graph, lane) for lane in edge]
        assert sums[0] < MIXING_THRESHOLD <= sums[1] < sums[2]
        ulp = float(np.spacing(MIXING_THRESHOLD))
        assert all(abs(total - MIXING_THRESHOLD) <= 4 * ulp for total in sums)
        nan_lane = np.full(self.N, np.nan)
        far_lane = np.zeros(self.N)  # every deviation 1/8: certified at size 8
        matrix = np.column_stack(edge + [nan_lane, far_lane])
        kwargs = dict(
            initial_size=self.SIZE,
            growth_factor=10.0,
            min_mass=0.0,
            stop_at_first_failure=stop_at_first_failure,
        )
        search = BatchedMixingSetSearch(graph, **kwargs)
        assert search.candidate_sizes == [self.SIZE, self.N]
        results = search.largest_mixing_sets(matrix, 1)
        for lane, result in zip(matrix.T, results):
            assert result == oracle_largest_mixing_set(graph, lane, 1, **kwargs)
        assert [result.size for result in results] == [self.SIZE, 0, 0, 0, 0]
        # The three edge lanes and the NaN lane take the exact path at size
        # 8, the far lane does not; the NaN lane is never sorted, so four
        # lanes evaluate the certificate once each.
        assert counting_numpy.partition_calls == 0
        assert counting_numpy.searchsorted_calls == 4
        assert counting_numpy.argpartition_calls == 4

    @pytest.mark.parametrize("size", [1, 2, 8, 4096, 2**20, 2**23, 2**30, 2**40, 2**52])
    def test_margin_is_the_smallest_value_above_the_bound(self, size):
        terms = (size - 1) * Fraction(1, 2**53)
        margin = mixing_set_module._rejection_margin(MIXING_THRESHOLD, size)
        assert type(margin) is float
        gamma = terms / (1 - terms)
        bound = Fraction(MIXING_THRESHOLD) * (1 + gamma) / (1 - gamma)
        assert Fraction(margin) >= bound
        assert Fraction(math.nextafter(margin, -math.inf)) < bound

    def test_margin_is_infinite_where_the_bound_fails(self):
        assert mixing_set_module._rejection_margin(MIXING_THRESHOLD, 2**52) < math.inf
        assert mixing_set_module._rejection_margin(MIXING_THRESHOLD, 2**52 + 1) == math.inf


class TestCertifiedScanCounts:
    """A timing-free guard: on a real walk, rejections skip the exact path.

    A 1024-vertex PPM walked 5 steps from 8 seeds.  Each ``argpartition``
    is one (lane, size) pair whose rejection the certificate could not
    prove; here that is only each lane's accepted size.  A certified size
    makes no O(n) pass, so the only deviation passes are each lane's top
    size and accepted size.
    """

    @pytest.fixture(scope="class")
    def walked(self):
        n = 1024
        graph = planted_partition_graph(n, 4, 2 * math.log(n) ** 2 / n, 0.6 / n, seed=11).graph
        walk = BatchedWalkDistribution(graph, [0, 100, 300, 400, 600, 700, 900, 1000])
        for _ in range(5):
            walk.step()
        return graph, walk.probabilities()

    @staticmethod
    def uncertified_pairs(search: BatchedMixingSetSearch, matrix, results) -> int:
        """Count the (lane, size < n) pairs of the descending scan not certified."""
        certificate = search._certificate
        count = 0
        for lane, result in zip(matrix.T, results):
            order = certificate.order(lane)
            verdicts = [
                verdict for run in certificate.runs for verdict in certificate.verdicts(order, run)
            ]
            visited = search.candidate_sizes[::-1].index(result.size)
            count += verdicts[:visited].count(False)
        return count

    def test_default_scan(self, walked, counting_numpy):
        graph, matrix = walked
        search = BatchedMixingSetSearch(graph, initial_size=log_size(1024))
        results = search.largest_mixing_sets(matrix, 5)
        for lane, result in zip(matrix.T, results):
            assert result == oracle_largest_mixing_set(graph, lane, 5, initial_size=7)
        assert [result.size for result in results] == [298] * 8
        assert [result.sizes_examined for result in results] == [102] * 8
        assert counting_numpy.subtract_calls == 16
        assert counting_numpy.partition_calls == 0
        assert counting_numpy.searchsorted_calls == 8
        assert counting_numpy.argpartition_calls == 8
        assert self.uncertified_pairs(search, matrix, results) == 8

    def test_first_failure_scan(self, walked, counting_numpy):
        graph, matrix = walked
        search = BatchedMixingSetSearch(
            graph, initial_size=log_size(1024), stop_at_first_failure=True
        )
        results = search.largest_mixing_sets(matrix, 5)
        for lane, result in zip(matrix.T, results):
            expected = oracle_largest_mixing_set(
                graph, lane, 5, initial_size=7, stop_at_first_failure=True
            )
            assert result == expected
        # Every lane fails the first size, 7, by a certified margin.
        assert [(result.size, result.sizes_examined) for result in results] == [(0, 1)] * 8
        assert counting_numpy.subtract_calls == 0
        assert counting_numpy.partition_calls == 0
        assert counting_numpy.searchsorted_calls == 8
        assert counting_numpy.argpartition_calls == 0


def k_smallest_sum(graph: Graph, lane: np.ndarray, size: int) -> float:
    """The exact sum of the ``size`` smallest deviations the exact path forms.

    A lexsort by (deviation, id) orders the deviations, and ``math.fsum``
    adds the first ``size`` of them without rounding.
    """
    targets = graph.degrees() / (graph.volume / graph.num_vertices * size)
    deviations = np.abs(lane - targets)
    order = np.lexsort((np.arange(graph.num_vertices), deviations))
    return math.fsum(deviations[order[:size]].tolist())


def oracle_accepts_deficit(graph: Graph, lane: np.ndarray, size: int) -> bool:
    """Whether the oracle's id-order deficit at ``size`` is below the threshold."""
    n = graph.num_vertices
    deviations = np.abs(lane - graph.degrees() / (graph.volume / n * size))
    chosen = np.sort(np.argpartition(deviations, size - 1)[:size])
    return bool(float(deviations[chosen].sum()) < MIXING_THRESHOLD)


def certificate_table(search: BatchedMixingSetSearch, lane: np.ndarray):
    """``(size, margin, best bound, slack, verdict)`` per certified size of ``lane``."""
    certificate = search._certificate
    order = certificate.order(lane)
    rows = []
    for index, slot in enumerate(certificate.slots):
        if slot is None:
            continue
        run, offset = slot
        bounds, needs = certificate.bounds(order, certificate.runs[run])
        size, margin = search._scan[index]
        best = int(np.argmax(bounds[:, offset] - needs[:, offset]))
        rows.append(
            (
                size,
                margin,
                float(bounds[best, offset]),
                float(needs[best, offset]) - float(margin),
                bool((bounds[:, offset] >= needs[:, offset]).any()),
            )
        )
    return rows


def star_and_clique(clique: int) -> Graph:
    """A ``clique``-vertex clique beside a star whose centre has degree ⌊ρ·(clique − 1)⌋.

    For ``clique − 1`` a multiple of 10 the centre's degree is exactly
    ρ = 1.1 times the clique's, so one band holds both classes at its full
    ratio, and the centre's weight is ρ times the band's smallest.
    """
    leaves = math.floor(mixing_set_module._BAND_RATIO * (clique - 1))
    centre = clique
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    edges += [(centre, centre + 1 + leaf) for leaf in range(leaves)]
    return Graph(clique + 1 + leaves, edges)


def chung_lu_graph(n: int, exponent: float, average: int, seed: int) -> Graph:
    """A Chung–Lu graph: endpoints drawn with weight ``i^(−1/(exponent−1))``."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, n + 1) ** (-1.0 / (exponent - 1.0))
    ends = rng.choice(n, size=(n * average // 2, 2), p=weights / weights.sum())
    ends = np.unique(np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1), axis=0)
    return Graph.from_edge_array(n, ends)


def bound_test_graph(kind: str, num_vertices: int, seed: int, isolated: int) -> Graph:
    """One graph of the bound test's strategy, plus ``isolated`` degree-0 vertices."""
    ring = [(i, (i + 1) % num_vertices) for i in range(num_vertices)]
    if kind == "cycle":
        graph = cycle(num_vertices)
    elif kind == "isolated":
        graph = Graph(num_vertices + 5, ring)
    elif kind == "regular":
        chords = [(i, (i + 2) % num_vertices) for i in range(num_vertices)]
        graph = Graph(num_vertices, ring + chords)
    elif kind == "star-clique":
        graph = star_and_clique(10 * (1 + seed % 3) + 1)
    elif kind == "chung-lu":
        graph = chung_lu_graph(num_vertices, 2.5, 12, seed)
    else:
        graph = gnp_random_graph(num_vertices, 0.3, seed=seed)
    return Graph.from_edge_array(graph.num_vertices + isolated, graph.edge_array())


def hub_lanes(graph: Graph, sizes: list[int]) -> np.ndarray:
    """Per size ``k``, a lane on the exact path's targets at the ``k`` highest degrees, else 0.

    Those ``k`` deviations are exactly 0, while the bound sees
    each as ``|T̂_u − w_u/k|``: the exact path's rounding of a large target
    is the whole of its ``k`` smallest sum.
    """
    n = graph.num_vertices
    degrees = graph.degrees().astype(np.float64)
    hubs = np.argsort(-graph.degrees(), kind="stable")
    lanes = np.zeros((n, len(sizes)))
    for column, size in enumerate(sizes):
        chosen = hubs[:size]
        lanes[chosen, column] = degrees[chosen] / (graph.volume / n * size)
    return lanes


class TestCertificateBound:
    """The banded certificate: sound bound, exact edge, and every input class."""

    def test_band_graphs_hold_several_classes_per_band(self):
        """The strategy's band-heavy graphs put classes ρ apart in one band."""
        for graph in (star_and_clique(11), chung_lu_graph(48, 2.5, 12, 3)):
            classes = np.unique(graph.degrees()).tolist()
            bands = mixing_set_module._degree_bands(classes)
            assert len(set(bands)) < len(classes)
        classes = np.unique(star_and_clique(21).degrees()).tolist()
        assert classes == [1, 20, 22]
        assert mixing_set_module._degree_bands(classes) == [0, 1, 1]

    @given(
        graph_kind=st.sampled_from(
            ["random", "cycle", "isolated", "regular", "star-clique", "chung-lu"]
        ),
        num_vertices=st.integers(8, 48),
        graph_seed=st.integers(0, 2**16),
        isolated=st.sampled_from([0, 0, 1, 3]),
        distribution_kind=st.sampled_from(["random", "tie-heavy", "spiky", "hubs"]),
        initial_size=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_bound_never_exceeds_the_k_smallest_sum(
        self,
        graph_kind,
        num_vertices,
        graph_seed,
        isolated,
        distribution_kind,
        initial_size,
    ):
        graph = bound_test_graph(graph_kind, num_vertices, graph_seed, isolated)
        assume(graph.num_edges > 0)
        n = graph.num_vertices
        if distribution_kind == "random":
            matrix = random_distribution_matrix(n, 3, graph_seed)
        elif distribution_kind == "tie-heavy":
            matrix = tie_heavy_distribution_matrix(n, 3, graph_seed)
        elif distribution_kind == "hubs":
            matrix = hub_lanes(graph, [initial_size, initial_size + 1, 2 * initial_size])
        else:
            matrix = np.zeros((n, 3))
            matrix[graph_seed % n, 0] = 1.0
            matrix[:, 1] = graph.degrees() / graph.volume
            matrix[: n // 2, 2] = 2.0 / n
        search = BatchedMixingSetSearch(
            graph, initial_size=initial_size, schedule="linear", min_mass=0.0
        )
        for lane in matrix.T:
            for size, _margin, bound, slack, verdict in certificate_table(search, lane):
                exact = k_smallest_sum(graph, lane, size)
                assert bound - slack <= exact * (1 + 2 * mixing_set_module._UNIT)
                if verdict:
                    assert not oracle_accepts_deficit(graph, lane, size)
        assert_matches_oracle(
            graph, matrix, initial_size=initial_size, schedule="linear", min_mass=0.0
        )

    def test_verdict_flips_within_a_few_ulps_of_the_need(self, counting_numpy):
        """Eight deviations inside every pivot's window: the bound is their sum.

        On a 40-cycle at size 8 (schedule [8, 40]), vertices 0-7 sit just
        above the target 1/8 and every other vertex at 0, outside every
        window.  Both pivots' bounds then equal the sum of the eight
        deviations, which is walked one representable step of vertex 0 at a
        time across the value the bound must reach.
        """
        graph, size, n = cycle(40), 8, 40
        kwargs = dict(initial_size=size, growth_factor=10.0, min_mass=0.0)
        search = BatchedMixingSetSearch(graph, **kwargs)
        assert search.candidate_sizes == [size, n]
        up, down = np.inf, -np.inf
        lane = np.zeros(n)
        lane[:size] = 0.125 + 0.0229 * np.linspace(0.9, 1.1, size)

        def verdict(values):
            ((_, margin, bound, slack, certified),) = certificate_table(search, values)
            return certified, bound, margin + slack

        # Move vertex 0 so the eight deviations sum to the need, then walk
        # it to the first representable value the certificate accepts.
        _, bound, need = verdict(lane)
        lane[0] += need - bound
        while verdict(lane)[0]:
            lane[0] = np.nextafter(lane[0], down)
        while not verdict(lane)[0]:
            lane[0] = np.nextafter(lane[0], up)
        sweep = []
        value = lane[0]
        for _ in range(4):
            value = np.nextafter(value, down)
        for _ in range(8):
            edge = lane.copy()
            edge[0] = value
            sweep.append(edge)
            value = np.nextafter(value, up)
        flags = [verdict(edge)[0] for edge in sweep]
        assert flags == [False] * 4 + [True] * 4
        # The first accepted value overshoots the need by at most one step
        # of vertex 0 or a few ulps of the bound's largest term (about n·T).
        _, bound, need = verdict(sweep[4])
        step = float(np.spacing(sweep[4][0]))
        assert 0.0 <= bound - need <= max(2 * step, 4 * float(np.spacing(float(n))))
        matrix = np.column_stack(sweep)
        results = search.largest_mixing_sets(matrix, 1)
        for column, result in zip(matrix.T, results):
            assert result == oracle_largest_mixing_set(graph, column, 1, **kwargs)
        # Every lane runs the top size; only the four uncertified lanes
        # select at size 8.
        assert counting_numpy.subtract_calls == 8 + 4
        assert counting_numpy.argpartition_calls == 4

    @pytest.mark.parametrize("stop_at_first_failure", [False, True])
    def test_lanes_the_certificate_cannot_sort_take_the_exact_path(
        self, stop_at_first_failure, counting_numpy
    ):
        """NaN, infinity and a sign bit (even on zero): every size exact."""
        graph = cycle_with_isolated_vertices()
        degrees = graph.degrees().astype(np.float64)
        stationary = degrees / degrees.sum()
        lanes = [stationary.copy() for _ in range(4)]
        lanes[0][3] = np.nan
        lanes[1][5] = np.inf
        lanes[2][7] = -1e-3
        lanes[3][3] = -0.0
        matrix = np.column_stack(lanes)
        kwargs = dict(initial_size=1, schedule="linear", min_mass=0.0)
        search = BatchedMixingSetSearch(
            graph, stop_at_first_failure=stop_at_first_failure, **kwargs
        )
        assert all(search._certificate.order(lane) is None for lane in lanes)
        assert search._certificate.order(stationary) is not None
        results = search.largest_mixing_sets(matrix, 2)
        for lane, result in zip(matrix.T, results):
            assert result == oracle_largest_mixing_set(
                graph, lane, 2, stop_at_first_failure=stop_at_first_failure, **kwargs
            )
        assert counting_numpy.searchsorted_calls == 0

    def test_degree_zero_class_and_one_class_graphs_are_certified(self):
        """Isolated vertices form a band with target 0; a cycle is one band."""
        for graph in (cycle_with_isolated_vertices(), cycle(30)):
            n = graph.num_vertices
            point = np.zeros(n)
            point[2] = 1.0
            search = BatchedMixingSetSearch(graph, initial_size=1, schedule="linear", min_mass=0.0)
            table = certificate_table(search, point)
            assert len(table) == n - 1
            assert sum(verdict for *_, verdict in table) >= n // 2
            assert_matches_oracle(
                graph, np.column_stack([point, tie_heavy_distribution_matrix(n, 2, 3)]),
                initial_size=1, schedule="linear", min_mass=0.0,
            )


class TestManyDegreeClasses:
    """Graphs with many degree classes are certified in few bands."""

    @pytest.fixture(scope="class", params=["dense", "chung-lu"])
    def graph(self, request) -> Graph:
        # About 85 degree classes each on 1024 vertices: 3 and 37 bands.
        if request.param == "dense":
            return gnp_random_graph(1024, 0.5, seed=4)
        return chung_lu_graph(1024, 2.5, 20, seed=13)

    def test_many_classes_fall_into_few_bands(self, graph):
        classes = np.unique(graph.degrees()).tolist()
        assert len(classes) > 50
        bands = mixing_set_module._degree_bands(classes)
        ratio = mixing_set_module._BAND_RATIO
        assert bands[-1] + 1 <= math.log(classes[-1] / classes[0], ratio) + 2
        starts = [bands.index(band) for band in range(bands[-1] + 1)]
        for band, start in enumerate(starts):
            members = [degree for degree, of in zip(classes, bands) if of == band]
            assert members[-1] <= ratio * classes[start]
            # A band ends only where the next class would exceed the ratio.
            if start + len(members) < len(classes):
                assert classes[start + len(members)] > ratio * classes[start]

    @pytest.mark.parametrize("stop_at_first_failure", [False, True])
    def test_many_classes_match_the_oracle(self, graph, stop_at_first_failure, counting_numpy):
        walk = BatchedWalkDistribution(graph, [0, 500])
        walk.step()
        matrix = np.column_stack([walk.probabilities(), random_distribution_matrix(1024, 2, 1)])
        search = BatchedMixingSetSearch(
            graph, initial_size=7, stop_at_first_failure=stop_at_first_failure
        )
        results = search.largest_mixing_sets(matrix, 3)
        for lane, result in zip(matrix.T, results):
            assert result == oracle_largest_mixing_set(
                graph, lane, 3, initial_size=7, stop_at_first_failure=stop_at_first_failure
            )
        # One pass per size that took the exact path: an argpartition below
        # n, none at the top size n; certified sizes make no pass.
        descending = search.candidate_sizes[::-1]
        visited = sum(
            result.sizes_examined
            if stop_at_first_failure
            else descending.index(result.size) + 1 if result.size else len(descending)
            for result in results
        )
        top = sum(
            result.sizes_examined == len(descending) if stop_at_first_failure else 1
            for result in results
        )
        assert counting_numpy.subtract_calls - counting_numpy.argpartition_calls == top
        assert counting_numpy.subtract_calls < visited
        assert counting_numpy.partition_calls == 0


class TestEquivalenceRandomDistributions:
    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_random_columns_on_ppm(self, small_ppm, width):
        n = small_ppm.graph.num_vertices
        matrix = random_distribution_matrix(n, width, seed=width)
        assert_matches_oracle(small_ppm.graph, matrix, initial_size=5)

    @pytest.mark.parametrize("width", [1, 4])
    def test_random_columns_on_two_cliques(self, two_cliques_graph, width):
        matrix = random_distribution_matrix(10, width, seed=10 + width)
        assert_matches_oracle(two_cliques_graph, matrix, initial_size=2)

    def test_linear_schedule(self, two_cliques_graph):
        matrix = random_distribution_matrix(10, 3, seed=1)
        assert_matches_oracle(two_cliques_graph, matrix, initial_size=2, schedule="linear")

    def test_stop_at_first_failure(self, small_ppm):
        n = small_ppm.graph.num_vertices
        matrix = random_distribution_matrix(n, 5, seed=2)
        assert_matches_oracle(
            small_ppm.graph, matrix, initial_size=5, stop_at_first_failure=True
        )

    @pytest.mark.parametrize("min_mass", [0.0, 0.5, 1.0])
    def test_min_mass_variants(self, small_ppm, min_mass):
        n = small_ppm.graph.num_vertices
        matrix = random_distribution_matrix(n, 3, seed=3)
        assert_matches_oracle(small_ppm.graph, matrix, initial_size=5, min_mass=min_mass)


class TestEquivalenceTieHeavyDistributions:
    @pytest.mark.parametrize("width", [1, 6])
    def test_quantized_columns_on_cycle(self, cycle_graph, width):
        matrix = tie_heavy_distribution_matrix(24, width, seed=width)
        assert_matches_oracle(cycle_graph, matrix, initial_size=2)

    def test_uniform_columns_maximal_ties(self, cycle_graph):
        # All deviations identical within a column: the argpartition tie-break
        # is fully exercised.
        matrix = np.full((24, 4), 1.0 / 24)
        assert_matches_oracle(cycle_graph, matrix, initial_size=2)
        assert_matches_oracle(cycle_graph, matrix, initial_size=2, schedule="linear")

    def test_quantized_columns_with_first_failure(self, cycle_graph):
        matrix = tie_heavy_distribution_matrix(24, 5, seed=9)
        assert_matches_oracle(
            cycle_graph, matrix, initial_size=2, stop_at_first_failure=True
        )


class TestEquivalenceWalkDistributions:
    def test_batched_walk_columns_across_steps(self, small_ppm):
        graph = small_ppm.graph
        seeds = [0, 17, 100, 17, 250]
        walk = BatchedWalkDistribution(graph, seeds)
        search = BatchedMixingSetSearch(graph, initial_size=5)
        for length in range(1, 6):
            walk.step()
            batch_results = search.largest_mixing_sets(walk.probabilities(), length)
            for column in range(len(seeds)):
                expected = oracle_largest_mixing_set(
                    graph, walk.column(column), length, initial_size=5
                )
                assert batch_results[column] == expected

    def test_from_parameters_matches_explicit_construction(self, small_ppm):
        graph = small_ppm.graph
        parameters = CDRWParameters(initial_size=4, min_mass=0.2, size_schedule="linear")
        from_params = BatchedMixingSetSearch.from_parameters(graph, parameters, 4)
        explicit = BatchedMixingSetSearch(
            graph,
            initial_size=4,
            mixing_threshold=parameters.mixing_threshold,
            growth_factor=parameters.growth_factor,
            schedule="linear",
            min_mass=0.2,
        )
        assert from_params.candidate_sizes == explicit.candidate_sizes
        matrix = random_distribution_matrix(graph.num_vertices, 2, seed=5)
        assert from_params.largest_mixing_sets(matrix, 1) == explicit.largest_mixing_sets(
            matrix, 1
        )


class TestValidationAndEdgeCases:
    def test_zero_width_matrix(self, two_cliques_graph):
        batched = BatchedMixingSetSearch(two_cliques_graph, initial_size=2)
        assert batched.largest_mixing_sets(np.zeros((10, 0)), 1) == []

    def test_wrong_shape_rejected(self, two_cliques_graph):
        batched = BatchedMixingSetSearch(two_cliques_graph, initial_size=2)
        with pytest.raises(AlgorithmError):
            batched.largest_mixing_sets(np.zeros(10), 1)
        with pytest.raises(AlgorithmError):
            batched.largest_mixing_sets(np.zeros((7, 2)), 1)

    def test_edgeless_graph_rejected(self):
        batched = BatchedMixingSetSearch(Graph(3, []), initial_size=1)
        with pytest.raises(AlgorithmError):
            batched.largest_mixing_sets(np.full((3, 2), 1.0 / 3.0), 1)
