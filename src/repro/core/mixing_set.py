"""The localized largest-mixing-set search at a fixed walk length.

This implements lines 12-17 of Algorithm 1.  Given the walk distribution
``p_ℓ`` after ``ℓ`` steps:

1. every vertex ``u`` computes ``x_u = | p_ℓ(u) − d(u)/µ'(S) |`` where
   ``µ'(S) = (2m/n)·|S|`` is the *average* volume of a size-``|S|`` set (the
   localized stand-in for the true volume ``µ(S)``, which a vertex cannot know
   without learning the whole set);
2. the seed collects the ``|S|`` smallest ``x_u`` values (distributedly this
   is done by binary search over a BFS tree — see
   :mod:`repro.congest.aggregation`) and accepts the size when their sum is
   below the threshold ``1/(2e)`` and the selected vertices hold walk mass at
   least ``1 − 2ε``;
3. candidate sizes grow geometrically by ``(1 + 1/8e)`` starting from
   ``R = log n``; the largest accepted size over the whole schedule is
   reported together with the vertices attaining it.  The kernel finds it by
   scanning the schedule from the top and stopping at the first accepted
   size, while the reported cost stays the paper's ascending schedule.

How the kernel decides a size ``k < n``: it first sums the ``k`` smallest
deviations as a *value multiset* (a partitioned copy, no indices, in any
order).  That estimate ``ŝ`` and the reported id-order sum are sums of the
same ``k`` non-negative floats, so both lie within
``γ = (k−1)·u / (1 − (k−1)·u)`` of the exact sum (``u`` the scan dtype's unit
roundoff).  ``ŝ ≥ threshold·(1+γ)/(1−γ)`` (rounded up) therefore proves the
reported sum fails the threshold too, and the size is rejected without
selecting members.  Every other size — each one that might accept, and any
NaN — runs the exact selection (``argpartition``, ids sorted, gathered
sums), which alone produces reported members, deficits and masses.  The
outputs are those of running the exact selection at every size.

Points 2 (the mass condition) and 3 (the largest size over the whole
schedule) depart from the literal pseudocode; README.md, "Deviations from
the paper", says why.

:class:`BatchedMixingSetSearch` is the *centralized executor* of this search
and the only implementation of its size schedule: every backend calls it,
one walk column per lane (the scalar and k-machine backends pass one column).
It performs the same arithmetic as the CONGEST node programs (the distributed
implementation produces identical sets up to the selection among tied
deviations — asserted by integration tests).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import DTypeLike

from ..exceptions import AlgorithmError
from ..execution import parallel_map_blocks, resolve_workers
from ..graphs.graph import Graph
from ..utils import GROWTH_FACTOR, MIXING_THRESHOLD, geometric_sizes, linear_sizes

if TYPE_CHECKING:
    from .parameters import CDRWParameters

__all__ = [
    "BatchedMixingSetSearch",
    "LargestMixingSet",
    "deviation_values",
]

#: Per-block working-array budget of the batched search (bytes).  One block
#: holds `block_width` walk distributions of `n` float64s; ~1 MB keeps the
#: block cache-resident across the whole candidate-size schedule while still
#: amortizing the shared per-size target computation over several lanes
#: (measured the best compromise across n = 8k–50k at B = 64 on one core).
_SEARCH_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class LargestMixingSet:
    """Outcome of the largest-mixing-set search at one walk length.

    Attributes
    ----------
    walk_length:
        The walk length ``ℓ`` the search was run at.
    size:
        Size of the largest accepted candidate (0 when none was accepted).
    members:
        The accepted vertex set (empty when ``size`` is 0).
    deficit:
        The sum of the ``size`` smallest ``x_u`` values of the accepted set.
    mass:
        The total walk probability currently held by the accepted set.
    sizes_examined:
        How many candidate sizes the paper's ascending schedule charges for
        this search (for complexity accounting): the whole schedule, or the
        sizes up to and including the first failure when
        ``stop_at_first_failure`` is set.  It is the paper's cost, not the
        number of sizes the kernel evaluated (the default top-down scan
        usually evaluates fewer).
    """

    walk_length: int
    size: int
    members: frozenset[int]
    deficit: float
    mass: float
    sizes_examined: int

    @property
    def found(self) -> bool:
        """Whether any candidate size satisfied the mixing condition."""
        return self.size > 0


def deviation_values(graph: Graph, distribution: np.ndarray, subset_size: int) -> np.ndarray:
    """Return the per-vertex deviations ``x_u = |p(u) − d(u)/µ'(S)|`` for ``|S| = subset_size``."""
    if subset_size < 1:
        raise AlgorithmError(f"subset size must be >= 1, got {subset_size}")
    if graph.num_edges == 0:
        raise AlgorithmError("the mixing-set search requires a graph with at least one edge")
    distribution = np.asarray(distribution, dtype=np.float64)
    if distribution.shape != (graph.num_vertices,):
        raise AlgorithmError(
            f"distribution has shape {distribution.shape}, expected ({graph.num_vertices},)"
        )
    average_volume = graph.volume / graph.num_vertices * subset_size
    targets = graph.degrees().astype(np.float64) / average_volume
    return np.abs(distribution - targets)


@functools.lru_cache(maxsize=4096)
def _rejection_margin(threshold: float, size: int, dtype: np.dtype) -> np.floating:
    """The smallest ``dtype`` value that certifies a size's rejection.

    Any two sums of the same ``size`` non-negative ``dtype`` values, in any
    order, lie within ``γ = (size−1)·u / (1 − (size−1)·u)`` of their exact
    sum (``u`` is the unit roundoff: 2⁻⁵³ for float64, 2⁻²⁴ for float32).
    So an order-free estimate ``ŝ ≥ threshold·(1+γ)/(1−γ)`` implies that
    the id-order sum is ``≥ threshold`` as well.  The margin
    ``threshold·(1+γ)/(1−γ) = threshold / (1 − 2·(size−1)·u)`` is evaluated
    exactly and rounded up to ``dtype``; it is infinite (nothing is ever
    certified) where ``(size−1)·u ≥ 1/2``.
    """
    kind = dtype.type
    slack = 2 * (size - 1) * Fraction(1, 2 ** (np.finfo(kind).nmant + 1))
    if slack >= 1:
        return kind(np.inf)
    exact = Fraction(threshold) / (1 - slack)
    margin = kind(float(exact))
    while Fraction(float(margin)) < exact:
        margin = np.nextafter(margin, kind(np.inf))
    return margin


class BatchedMixingSetSearch:
    """The largest-mixing-set search of Algorithm 1, for ``B`` walks at once.

    The search object precomputes the candidate-size schedule and the degree
    vector once per graph, so repeated calls (one per walk length) stay
    cheap.  The schedule is scanned from the largest size down, and a lane
    leaves the scan at the first size it accepts (with
    ``stop_at_first_failure`` the scan ascends and a lane leaves at its
    first failure).  For every evaluated size the targets ``d(u)/µ'(S)``
    are computed once and the deviation matrix ``|P − targets|`` over all
    active lanes is formed in one elementwise pass.  Below the top size one
    value-only ``np.partition`` of a copy of that matrix gives every lane's
    order-free estimate of its ``|S|`` smallest deviations; a lane whose
    estimate clears the size's rejection margin (:func:`_rejection_margin`)
    is rejected there, and only the remaining lanes run the exact per-lane
    ``np.argpartition`` selection.  Distributions are laid out one per row
    (the matrix is transposed once per call), so every lane is contiguous
    in memory.  A one-column call is the same kernel with one lane.

    Per-column guarantee
    --------------------
    A column's result is independent of the batch width, of the other lanes
    and of ``workers``: ``largest_mixing_sets(P, ℓ)[j]`` equals
    ``largest_mixing_sets(P[:, j:j + 1], ℓ)[0]`` (dataclass equality: same
    members, same deficit/mass floats, same ``sizes_examined``).

    * deviations are elementwise IEEE operations, identical regardless of
      memory layout;
    * numpy's introselect is deterministic in the value sequence of each
      lane, so a lane's selection (and its partitioned estimate) does not
      depend on its neighbours;
    * the exact path runs on each lane's own row: a 1-D ``argpartition``,
      then pairwise sums over the id-sorted gather (an axis-0 reduction
      would block differently and drift in the last ulp — the same pitfall
      :meth:`BatchedWalkDistribution.mass_in` avoids);
    * a certified rejection is one the exact path would also make, so which
      sizes take the exact path changes the work done, never a result.

    Selection rule: the members of a size are the ``|S|`` entries
    ``np.argpartition`` places first — the smallest deviations, but among
    deviations tied at the ``|S|``-th value, whichever introselect returns,
    *not* the lowest vertex ids (README.md, "Deviations from the paper").
    ``tests/test_batched_mixing_set.py`` checks every column against a plain
    per-size argpartition oracle and against its own width-1 call.

    Multi-core search
    -----------------
    The ``workers`` knob (``None`` → ``REPRO_WORKERS`` environment override →
    serial; ``0`` → all cores) splits the lanes across threads of the shared
    pool (:mod:`repro.execution`) by contiguous *lane block*.  Every lane's
    results are computed from that lane's row alone, so the per-column
    guarantee holds for every ``workers`` value.

    float32 fast path
    -----------------
    ``dtype=np.float32`` halves the memory traffic of the deviation scan —
    the knob for searches that are bandwidth-bound, not precision-bound.  It
    is explicitly **not** float64-exact: deviations, deficits and masses are
    computed in single precision (then widened for the threshold
    comparisons), so reported floats are only ≈-close to the float64 path
    and argpartition near-ties may select different members.  Tests assert
    closeness, never equality, against float64.
    """

    def __init__(
        self,
        graph: Graph,
        initial_size: int,
        mixing_threshold: float = MIXING_THRESHOLD,
        growth_factor: float = GROWTH_FACTOR,
        schedule: str = "geometric",
        stop_at_first_failure: bool = False,
        min_mass: float | None = None,
        *,
        workers: int | None = None,
        dtype: DTypeLike = np.float64,
    ) -> None:
        if initial_size < 1:
            raise AlgorithmError(f"initial size must be >= 1, got {initial_size}")
        if graph.num_vertices == 0:
            raise AlgorithmError("cannot search for mixing sets in an empty graph")
        if not (0.0 < mixing_threshold < 2.0):
            raise AlgorithmError(f"mixing threshold must be in (0, 2), got {mixing_threshold}")
        if min_mass is None:
            # Definition 2 implies a true local mixing set holds mass at least
            # 1 - ε; the localized µ'(S) proxy loses that guarantee (a set of
            # low-degree vertices with almost no probability can have small
            # per-vertex deviations), so the mass condition is enforced
            # explicitly, slightly relaxed to 1 - 2ε to tolerate the
            # probability that leaks across the sparse PPM cut while the walk
            # mixes inside its block.
            min_mass = max(0.0, 1.0 - 2.0 * mixing_threshold)
        if not (0.0 <= min_mass <= 1.0):
            raise AlgorithmError(f"min_mass must be in [0, 1], got {min_mass}")
        initial = min(initial_size, graph.num_vertices)
        if schedule == "geometric":
            self._sizes = geometric_sizes(initial, graph.num_vertices, growth_factor)
        elif schedule == "linear":
            self._sizes = linear_sizes(initial, graph.num_vertices)
        else:
            raise AlgorithmError(f"unknown schedule: {schedule!r}")
        self._dtype = np.dtype(dtype)
        if self._dtype not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise AlgorithmError(
                f"batched search dtype must be float64 or float32, got {dtype!r}"
            )
        self._graph = graph
        self._threshold = mixing_threshold
        self._min_mass = min_mass
        self._stop_at_first_failure = bool(stop_at_first_failure)
        self._workers = resolve_workers(workers)
        # Per-graph constants, hoisted out of the size loop.  The average
        # volume is computed as (volume/n)·size — the same float sequence as
        # deviation_values — so targets stay bit-identical to it.
        self._degrees = graph.degrees().astype(self._dtype)
        self._volume_per_vertex = graph.volume / graph.num_vertices
        self._rejection_margins = [
            _rejection_margin(mixing_threshold, size, self._dtype) for size in self._sizes
        ]

    @property
    def candidate_sizes(self) -> list[int]:
        """The candidate-size schedule (read-only copy)."""
        return list(self._sizes)

    @property
    def workers(self) -> int:
        """The resolved thread count used by the lane-blocked scan."""
        return self._workers

    @property
    def dtype(self) -> np.dtype:
        """The scan precision (float64 exact path or float32 fast path)."""
        return self._dtype

    @classmethod
    def from_parameters(
        cls,
        graph: Graph,
        parameters: "CDRWParameters",
        initial_size: int,
        workers: int | None = None,
        dtype: DTypeLike = np.float64,
    ) -> "BatchedMixingSetSearch":
        """Build a search from a :class:`CDRWParameters` instance."""
        return cls(
            graph,
            initial_size=initial_size,
            mixing_threshold=parameters.mixing_threshold,
            growth_factor=parameters.growth_factor,
            schedule=parameters.size_schedule,
            stop_at_first_failure=parameters.stop_at_first_failure,
            min_mass=parameters.min_mass,
            workers=workers,
            dtype=dtype,
        )

    def largest_mixing_sets(
        self, distributions: np.ndarray, walk_length: int
    ) -> list[LargestMixingSet]:
        """Return the largest mixing set of every column of ``distributions``.

        The *largest* size whose ``|S|`` smallest deviations sum below the
        threshold (with enough mass) wins (Algorithm 1 line 17: "the largest
        set S which satisfies the mixing condition").  By default every size
        of the schedule is a candidate: with the localized average-volume
        proxy ``µ'(S)`` the acceptance predicate is not monotone in ``|S|`` —
        in dense graphs no set smaller than roughly the seed's degree can mix
        even though community-sized sets do — so stopping at the first
        failing size (the literal pseudocode reading, available via
        ``stop_at_first_failure=True``) can miss every mixing set.  The
        schedule is therefore scanned from the largest size down, and a
        column is done at the first size it accepts: no smaller size can
        change the answer.  Each evaluated size runs the same arithmetic as
        an ascending scan, so results (and ``sizes_examined``, the ascending
        schedule's cost) are those of the ascending scan.

        Parameters
        ----------
        distributions:
            ``(n, B)`` matrix whose columns are walk distributions (e.g.
            ``BatchedWalkDistribution.probabilities()``, or ``p[:, None]``
            for one walk).
        walk_length:
            The walk length ``ℓ`` recorded in every returned result.
        """
        matrix = np.asarray(distributions, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != self._graph.num_vertices:
            raise AlgorithmError(
                f"distribution matrix has shape {matrix.shape}, expected "
                f"({self._graph.num_vertices}, B)"
            )
        if self._graph.num_edges == 0:
            raise AlgorithmError("the mixing-set search requires a graph with at least one edge")
        num_vertices, width = matrix.shape
        if width == 0:
            return []
        # Work row-major with one distribution per *row*: the per-lane
        # introselect of the partitions below then runs over contiguous
        # memory.  (Partitioning the (n, B) matrix along axis 0 walks lanes
        # with stride 8B bytes — measured 6x slower than a per-column loop at
        # B = 64 on a 50k-vertex graph.)  The transpose changes layout only,
        # never the per-lane value sequence, so results are unaffected; the
        # float32 fast path casts here, in the same pass.
        rows = np.ascontiguousarray(matrix.T, dtype=self._dtype)

        best_size = [0] * width
        best_members: list[np.ndarray | None] = [None] * width
        best_deficit = [0.0] * width
        best_mass = [0.0] * width
        examined = [0] * width

        # Lanes are processed in cache-sized blocks, each scanning the whole
        # candidate schedule before the next block starts: the block's rows
        # stay hot across all sizes, while targets and the
        # elementwise/partition passes amortize over the block.  One
        # (lanes, n) array per _SEARCH_BLOCK_BYTES.
        block_width = max(
            1, min(width, _SEARCH_BLOCK_BYTES // max(1, num_vertices * rows.itemsize))
        )

        def scan_lanes(lane_start: int, lane_stop: int) -> None:
            # Worker task: scan a contiguous lane range in cache-sized
            # blocks.  Every lane's results depend only on its own row, so
            # neither the block boundaries nor the worker partition change a
            # single output value, and each lane index is written by exactly
            # one worker (disjoint slices — no locking needed).
            for start in range(lane_start, lane_stop, block_width):
                self._scan_block(
                    rows,
                    start,
                    min(start + block_width, lane_stop),
                    best_size,
                    best_members,
                    best_deficit,
                    best_mass,
                    examined,
                )

        parallel_map_blocks(scan_lanes, width, self._workers)

        results: list[LargestMixingSet] = []
        for column in range(width):
            members = best_members[column]
            results.append(
                LargestMixingSet(
                    walk_length=walk_length,
                    size=best_size[column],
                    members=frozenset(members.tolist()) if members is not None else frozenset(),
                    deficit=best_deficit[column],
                    mass=best_mass[column],
                    sizes_examined=examined[column],
                )
            )
        return results

    def _scan_block(
        self,
        rows: np.ndarray,
        start: int,
        stop: int,
        best_size: list[int],
        best_members: list[np.ndarray | None],
        best_deficit: list[float],
        best_mass: list[float],
        examined: list[int],
    ) -> None:
        """Scan the candidate schedule for lanes ``start:stop`` of ``rows``.

        Writes each lane's largest accepted candidate into the shared result
        lists at its global lane index; lanes outside ``start:stop`` are
        never touched, which is what makes the blocks thread-safe.

        A lane retires at its first accepted size on the default descending
        scan, or at its first failing size on the ascending
        ``stop_at_first_failure`` scan.

        Each size ``k < n`` is decided in two tiers.  The block's deviation
        rows are partitioned by value (a copy) and each lane's first ``k``
        values summed in any order; a lane whose sum is at least the size's
        margin ``threshold·(1+γ)/(1−γ)``, ``γ = (k−1)·u/(1−(k−1)·u)``, fails
        the threshold in the exact sum as well, so it is rejected (and on
        the ascending scan retires with the same ``examined`` index).  Every
        other lane, NaN included, runs the exact path on its own row:
        ``argpartition``, the chosen ids sorted, deviations and masses
        gathered and summed in id order.  Only the exact path writes
        members, deficits and masses.
        """
        num_vertices = rows.shape[1]
        threshold = self._threshold
        min_mass = self._min_mass
        ascending = self._stop_at_first_failure
        # Global column ids of the lanes still scanning the schedule.
        columns = list(range(start, stop))
        # The paper's cost: the ascending schedule up to the first failure
        # (overwritten below when one occurs), else the whole schedule.
        examined[start:stop] = [len(self._sizes)] * len(columns)
        lanes = rows[start:stop]
        deviations = np.empty_like(lanes)
        schedule = list(zip(self._sizes, self._rejection_margins))
        for index, (size, margin) in enumerate(
            schedule if ascending else schedule[::-1], start=1
        ):
            targets = self._degrees / (self._volume_per_vertex * size)
            np.subtract(lanes, targets, out=deviations)
            np.absolute(deviations, out=deviations)
            retired: list[int] = []
            if size >= num_vertices:
                exact = list(range(len(columns)))
                deficits = deviations.sum(axis=1).tolist()
                masses = lanes.sum(axis=1).tolist()
            else:
                # Certified rejection (see above).  np.partition returns a
                # copy, so `deviations` keeps id order for the exact path;
                # a NaN estimate never clears the margin.
                estimates = np.partition(deviations, size - 1, axis=1)[:, :size].sum(axis=1)
                exact = []
                for position, certified in enumerate((estimates >= margin).tolist()):
                    if not certified:
                        exact.append(position)
                    elif ascending:
                        examined[columns[position]] = index
                        retired.append(position)
            for position in exact:
                column = columns[position]
                if size >= num_vertices:
                    chosen = None
                    deficit = deficits[position]
                    mass = masses[position]
                else:
                    # The exact path: argpartition, then the chosen ids in
                    # ascending order, summed pairwise in that order.
                    row = deviations[position]
                    chosen = np.argpartition(row, size - 1)[:size]
                    chosen.sort()
                    deficit = float(row.take(chosen).sum())
                    mass = float(lanes[position].take(chosen).sum())
                if deficit < threshold and mass >= min_mass:
                    best_size[column] = size
                    best_members[column] = (
                        np.arange(num_vertices, dtype=np.int64)
                        if chosen is None
                        # Copy: the slice must not keep the size-n index
                        # array alive per column.
                        else chosen.copy()
                    )
                    best_deficit[column] = deficit
                    best_mass[column] = mass
                    if not ascending:
                        retired.append(position)
                elif deficit >= threshold and ascending:
                    examined[column] = index
                    retired.append(position)
            if retired:
                keep = np.delete(np.arange(len(columns)), retired)
                columns = [columns[position] for position in keep]
                if not columns:
                    return
                lanes = np.ascontiguousarray(lanes[keep])
                deviations = np.empty_like(lanes)
