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

How the kernel decides a size ``k < n``.  Sorting once per lane and walk
length, it proves most rejections without forming the size's deviations,
the way the paper's own selection counts instead of sorting: the seed
broadcasts a pivot ``τ`` and convergecasts the count and sum of the
deviations ``≤ τ``.

* **The bound.**  For any ``τ``, the ``k`` smallest of any values ``z_u``
  sum to at least ``L_k(τ) = k·τ − Σ_u (τ − z_u)₊``, since
  ``z ≥ τ − (τ − z)₊`` and the sum over all ``u`` covers any ``k`` of them.
  With the weight ``w_u = d_u·n/2m`` and ``r_u = p_u/w_u``, a vertex's
  deviation from its target ``w_u/k`` is ``|p_u − w_u/k| = w_u·|r_u − 1/k|``.
  A *degree band* is a run of consecutive degree classes whose largest
  degree is at most ``ρ`` (:data:`_BAND_RATIO`) times its smallest; with
  ``w_g`` the band's smallest weight, ``z_u = w_g·|r_u − 1/k|`` is at most
  that deviation, so ``L_k(τ)`` over the ``z_u`` bounds the ``k`` smallest
  deviations too.  Within a band the vertices with ``z_u ≤ τ`` are the
  window ``|r − 1/k| ≤ τ/w_g`` of the band's sorted ``r``; its count and
  sum, split at ``1/k``, give the band's share of the sum over ``u``.
  Degree-0 vertices are a band of their own with ``w = 0``: their target is
  0, so the band sorts ``p`` itself around the centre 0 (scale 1).  One
  integer sort per lane (keys: the band above the float bits of ``r``,
  truncated by ``2^c`` ulps for ``c`` band bits), one prefix sum, and one
  ``searchsorted`` of per-graph query keys ``1/k ∓ τ/w_g`` and ``1/k`` then
  bound every size of a run of :data:`_CERTIFICATE_RUN` consecutive sizes
  at the pivots ``τ ∈ {1.5, 4}·margin/k``.  A graph has at most about
  ``log_ρ(d_max/d_min) + 2`` bands, whatever its number of classes.
* **The rounding slack.**  Every quantity — the lane, the exact path and
  the certificate — is a float64, with unit roundoff ``u = 2⁻⁵³`` and
  ``γ_j = j·u/(1 − j·u)``.  The size is rejected when some pivot's
  computed bound is at least ``margin + slack``: ``margin`` is
  :func:`_rejection_margin` (``threshold·(1+γ)/(1−γ)``, ``γ = γ_(k−1)``)
  and ``slack = 2(γ₁ + 4ε)(kτ + 4nW) + 2(γ₂ + 4ε)(4S + 4)R
  + 2(η + δ)(kτ + 2SR) + 8u·margin`` with ``ε = 2^(c−52)``,
  ``γ₁ = γ_(3G+5)``, ``γ₂ = γ_(n+3G+5)``, ``G`` bands,
  ``S = Σ_g w_g`` (1 for the degree-0 band), ``R`` the sum of the lane's
  truncated ``r`` and ``W`` the sum of the bound's ``|w_g/k ∓ τ|`` and
  ``2w_g/k`` weights.  The ``γ`` terms cover the prefix sums, products
  and sums; the ``ε`` terms cover the truncated keys and values (a vertex
  within ``ε`` of a window edge or of ``1/k``).  The two band terms:
  ``η = γ₃ + ε`` covers ``r̂ = p·(2m/(n·d))`` rounded and truncated, which
  moves each ``z_u`` by at most ``η·p_u`` and ``L_k(τ)`` by at most
  ``η‖p‖₁``, with ``‖p‖₁ ≤ ρ·max_g w_g·R/(1 − η) ≤ 2SR``; ``δ = γ₅``
  bounds the gap ``|T̂_u − w_u/k| ≤ δ·w_u/k`` between the exact path's
  rounded target ``T̂_u`` and ``w_u/k``.  The factor 2 covers the slack's
  own evaluation, and ``8u·margin`` the underflow of a subnormal ``r̂``
  (under ``2^−1070`` per vertex).
* **The proof.**  Let ``y_u = |p_u − T̂_u|`` be the real deviations of
  ``p`` and ``T̂``.  Since ``w_u/k ≤ p_u + |p_u − w_u/k|``,
  each ``y_u ≥ (1 − δ)·|p_u − w_u/k| − δ·p_u ≥ (1 − δ)·z_u − δ·p_u``, and
  ``L_k(τ) ≤ kτ``, so the ``k`` smallest ``y_u`` sum to at least
  ``L_k(τ) − δ·kτ − (η + δ)·‖p‖₁`` for ``L_k(τ)`` taken over the truncated
  ``r̂``.  A certified size therefore has ``k`` smallest ``y_u`` summing to
  at least ``margin·(1 + 2u)``.  The exact path's deviations are ``y_u``
  rounded once, so their ``k`` smallest sum to at least ``margin``; its
  id-order sum of those ``k`` values is within ``γ`` of that, hence at
  least ``(1 − γ)·margin ≥ threshold·(1 + γ)``: the size fails the
  threshold.

Every other size — one that might accept, one the bound cannot prove, or
any size of a lane holding a NaN, an infinity or a sign bit — runs the
exact selection (the deviations, ``argpartition``, ids sorted, gathered
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
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..exceptions import AlgorithmError
from ..graphs.graph import Graph
from ..utils import GROWTH_FACTOR, MIXING_THRESHOLD, geometric_sizes, linear_sizes

if TYPE_CHECKING:
    from .parameters import CDRWParameters

__all__ = [
    "BatchedMixingSetSearch",
    "LargestMixingSet",
    "deviation_values",
]

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
def _rejection_margin(threshold: float, size: int) -> float:
    """The smallest float64 that certifies a size's rejection.

    Any two sums of the same ``size`` non-negative float64 values, in any
    order, lie within ``γ = (size−1)·u / (1 − (size−1)·u)`` of their exact
    sum (``u = 2⁻⁵³`` is the unit roundoff).  So an order-free estimate
    ``ŝ ≥ threshold·(1+γ)/(1−γ)`` implies that the id-order sum is
    ``≥ threshold`` as well.  The margin
    ``threshold·(1+γ)/(1−γ) = threshold / (1 − 2·(size−1)·u)`` is evaluated
    exactly and rounded up; it is infinite (nothing is ever certified)
    where ``(size−1)·u ≥ 1/2``.
    """
    slack = 2 * (size - 1) * Fraction(1, 2**53)
    if slack >= 1:
        return math.inf
    exact = Fraction(threshold) / (1 - slack)
    margin = float(exact)
    while Fraction(margin) < exact:
        margin = math.nextafter(margin, math.inf)
    return margin


#: Candidate sizes per certificate evaluation: a lane's bounds are computed
#: for this many consecutive positions of its scan at a time, so a scan that
#: ends near its start never pays for the rest of the schedule.
_CERTIFICATE_RUN = 32

#: The pivots of a size's bounds, as multiples of margin / size.  The best
#: pivot is the size's k-th smallest deviation; measured, sizes just above a
#: community's size need about 4·margin/k, unmixed walks about 1.5·margin/k.
_PIVOT_SCALES = (1.5, 4.0)

#: ``ρ``: a degree band is a run of consecutive degree classes whose largest
#: degree is at most this many times its smallest.
_BAND_RATIO = 1.1

#: Bit pattern of +inf: a float64 with a clear sign bit is finite exactly
#: when its bits lie below this.
_INFINITY_BITS = 0x7FF0000000000000


#: ``u``: the float64 unit roundoff.
_UNIT = 2.0**-53


def _gamma(count: int) -> float:
    """``γ_count = count·u / (1 − count·u)``."""
    return count * _UNIT / (1.0 - count * _UNIT)


def _degree_bands(classes: list[int]) -> list[int]:
    """The band of each degree class (ascending degrees), numbered from 0.

    A band starts at its smallest class and takes each following class up
    to :data:`_BAND_RATIO` times that degree; degree 0 is a band of its own.
    """
    bands: list[int] = []
    band, smallest = -1, 0
    for degree in classes:
        if smallest == 0 or degree > _BAND_RATIO * smallest:
            band, smallest = band + 1, degree
        bands.append(band)
    return bands


def _weight_below(degree: int, vertices: int, volume: int) -> float:
    """``w = degree·n / 2m``, rounded down to a float64."""
    exact = Fraction(degree * vertices, volume)
    weight = float(exact)
    return weight if Fraction(weight) <= exact else math.nextafter(weight, 0.0)


class _CertificateRun(NamedTuple):
    """The per-graph query tables of one run of consecutive scan positions.

    A run of ``R`` sizes and ``J`` pivots holds one query per band and size
    at the centre ``1/k``, and two per band, size and pivot at
    ``1/k ∓ τ/w``; the per-query arrays are in key order.
    """

    #: Per query, ``band`` in the high bits over the truncated value (ascending).
    keys: np.ndarray
    #: Per query, the weight of its window position: ``w/k − τ``, ``−2w/k`` or ``w/k + τ``.
    weights: np.ndarray
    #: Per query, the weight of its prefix sum: ``−w``, ``2w`` or ``−w``.
    signs: np.ndarray
    #: Per query, its bin: ``pivot·R + size`` for window edges, ``J·R + size`` for centres.
    bins: np.ndarray
    #: ``(J, R)``: ``size · τ`` per pivot and size.
    pivot_totals: np.ndarray
    #: ``(J, R)``: the margin plus the lane-independent slack.
    needs: np.ndarray


class _LaneOrder(NamedTuple):
    """One lane sorted once by (degree band, ``p/w``)."""

    #: Per vertex, ``band`` in the high bits over the truncated ``p/w``; ascending.
    keys: np.ndarray
    #: Prefix sums of the truncated ``p/w`` in key order (length ``n + 1``).
    prefix: np.ndarray


class _RejectionCertificate:
    """Proves rejections from one sort of a lane (``BatchedMixingSetSearch``).

    Built once per graph for one scan order; :meth:`order` sorts a lane and
    :meth:`verdicts` bounds one run of sizes from that sort (the module
    docstring states the bound, its rounding slack and its proof).
    """

    def __init__(self, degrees: np.ndarray, scan: list[tuple[int, float]]) -> None:
        n = len(degrees)
        volume = int(degrees.sum())
        classes, class_of = np.unique(degrees, return_inverse=True)
        class_bands = _degree_bands(classes.tolist())
        width = class_bands[-1] + 1
        # Per band: the weight w of its smallest degree (rounded down) and
        # whether its centre is 1/k; the degree-0 band has w = 1, centre 0.
        smallest = [int(classes[class_bands.index(band)]) for band in range(width)]
        scales = np.array([_weight_below(d, n, volume) if d else 1.0 for d in smallest])
        centred = np.array([d > 0 for d in smallest], dtype=np.float64)
        # Per vertex: 2m/(n·d) = 1/w, or 1 at degree 0, so p·(2m/(n·d)) = p/w.
        self._inverse_weights = np.ones(n, dtype=np.float64)
        np.divide(
            float(volume),
            n * degrees.astype(np.float64),
            out=self._inverse_weights,
            where=degrees > 0,
        )
        # A key is the band in the top `band_bits` bits over the float64
        # bits of a non-negative value shifted right by `band_bits`: keys
        # order by band, then by value truncated by at most 2^band_bits ulps.
        self._band_bits = max(1, (width - 1).bit_length())
        self._value_mask = np.int64((1 << (63 - self._band_bits)) - 1)
        band_of = np.asarray(class_bands, dtype=np.int64)[class_of]
        self._band_keys = band_of << (63 - self._band_bits)
        self._infinity_key = _INFINITY_BITS >> self._band_bits
        truncation = 2.0 ** (self._band_bits - 52)
        positions_gamma = _gamma(3 * width + 5) + 4 * truncation
        prefix_gamma = _gamma(n + 3 * width + 5) + 4 * truncation
        # The two terms a band adds: p/w rounded (η) and the exact path's
        # rounded target against w/k (δ).
        drift = _gamma(3) + truncation + _gamma(5)
        total_scale = float(scales.sum())
        self._mass_slack = 2 * prefix_gamma * (4 * total_scale + 4) + 4 * drift * total_scale
        pivot_scales = np.array(_PIVOT_SCALES)
        pivot_count = len(pivot_scales)
        #: Per scan position: ``(run, offset)``, or ``None`` where the exact
        #: path always runs (the size ``n`` and sizes with an infinite margin).
        self.slots: list[tuple[int, int] | None] = [None] * len(scan)
        positions = [
            index
            for index, (size, margin) in enumerate(scan)
            if size < n and math.isfinite(margin)
        ]
        self.runs: list[_CertificateRun] = []
        for start in range(0, len(positions), _CERTIFICATE_RUN):
            run = positions[start : start + _CERTIFICATE_RUN]
            length = len(run)
            sizes = np.array([scan[index][0] for index in run], dtype=np.float64)
            margins = np.array([scan[index][1] for index in run])
            # (J, R) pivots; (R, G) centres; (J, R, G) window edges in p/w.
            pivots = pivot_scales[:, None] * margins / sizes
            centres = centred / sizes[:, None]
            reach = pivots[:, :, None] / scales
            lower = centres - reach
            upper = centres + reach
            edge_bins = np.arange(pivot_count * length).reshape(pivot_count, length, 1)
            values = np.concatenate([lower.ravel(), upper.ravel(), centres.ravel()])
            lower_weights = scales * lower
            upper_weights = scales * upper
            centre_weights = -2 * scales * centres
            weights = np.concatenate(
                [lower_weights.ravel(), upper_weights.ravel(), centre_weights.ravel()]
            )
            signs = np.concatenate(
                [
                    np.broadcast_to(-scales, lower.shape).ravel(),
                    np.broadcast_to(-scales, upper.shape).ravel(),
                    np.broadcast_to(2 * scales, centres.shape).ravel(),
                ]
            )
            bins = np.concatenate(
                [
                    np.broadcast_to(edge_bins, lower.shape).ravel(),
                    np.broadcast_to(edge_bins, upper.shape).ravel(),
                    np.broadcast_to(
                        pivot_count * length + np.arange(length)[:, None], centres.shape
                    ).ravel(),
                ]
            )
            # The band is the last axis of every grid.
            query_bands = np.tile(np.arange(width, dtype=np.int64), len(values) // width)
            keys = (query_bands << (63 - self._band_bits)) | (
                np.maximum(values, 0.0).view(np.int64) >> self._band_bits
            )
            order = np.argsort(keys, kind="stable")
            # Σ|weights| per pivot and size: the centres' share counts once
            # per pivot.
            spread = (np.abs(lower_weights) + np.abs(upper_weights)).sum(axis=2) - (
                centre_weights.sum(axis=1)
            )
            pivot_totals = sizes * pivots
            slack = (
                2 * positions_gamma * (pivot_totals + 4 * n * spread)
                + 2 * drift * pivot_totals
                + 8 * _UNIT * margins
            )
            self.runs.append(
                _CertificateRun(
                    keys=keys[order],
                    weights=weights[order],
                    signs=signs[order],
                    bins=bins[order],
                    pivot_totals=pivot_totals,
                    needs=margins + slack,
                )
            )
            for offset, index in enumerate(run):
                self.slots[index] = (len(self.runs) - 1, offset)

    def order(self, lane: np.ndarray) -> _LaneOrder | None:
        """Sort one lane by (band, ``p/w``); ``None`` unless it is all finite and non-negative."""
        keys = (lane * self._inverse_weights).view(np.int64)
        keys >>= self._band_bits
        keys |= self._band_keys
        keys.sort()
        truncated = keys & self._value_mask
        # A sign bit (a negative value or -0.0) makes a key negative; NaN
        # and infinity have the largest exponent.
        if keys[0] < 0 or truncated.max() >= self._infinity_key:
            return None
        truncated <<= self._band_bits
        prefix = np.zeros(len(keys) + 1, dtype=np.float64)
        np.cumsum(truncated.view(np.float64), out=prefix[1:])
        return _LaneOrder(keys, prefix)

    def bounds(self, lane: _LaneOrder, run: _CertificateRun) -> tuple[np.ndarray, np.ndarray]:
        """``(J, R)``: each pivot's bound at each size of ``run``, and the value it must reach."""
        # Per query: where the lane's keys reach it, i.e. a window edge.
        edges = np.searchsorted(lane.keys, run.keys)
        terms = edges * run.weights
        terms += run.signs * lane.prefix[edges]
        length = run.needs.shape[1]
        sums = np.bincount(run.bins, terms, minlength=(len(run.needs) + 1) * length)
        bounds = run.pivot_totals - sums[:-length].reshape(run.needs.shape)
        bounds -= sums[-length:]
        return bounds, run.needs + self._mass_slack * lane.prefix[-1]

    def verdicts(self, lane: _LaneOrder, run: _CertificateRun) -> list[bool]:
        """Whether each size of ``run`` is a certified rejection for ``lane``."""
        bounds, needs = self.bounds(lane, run)
        return (bounds >= needs).any(axis=0).tolist()


class BatchedMixingSetSearch:
    """The largest-mixing-set search of Algorithm 1, for ``B`` walks at once.

    The search object precomputes, once per graph, the candidate-size
    schedule, the degree vector, each size's rejection margin
    (:func:`_rejection_margin`) and the certificate's query tables (about
    0.23 MB at n = 4096).  Each lane then scans the schedule on its own row:
    from the largest size down, leaving at the first size it accepts (with
    ``stop_at_first_failure`` the scan ascends and a lane leaves at its
    first failure).  At its first size below ``n`` a lane is sorted once by
    (degree band, ``p/w``); each run of :data:`_CERTIFICATE_RUN` sizes then
    costs one ``searchsorted`` and a few vectorised calls, which bound the
    sum of every size's ``|S|`` smallest deviations from below.  A size
    whose bound clears its margin plus the rounding slack is rejected with
    no O(n) pass; every other size forms the deviations ``|p − targets|``
    and runs the exact ``np.argpartition`` selection (the module docstring
    states the bound, the slack and the proof).  Distributions are laid out
    one per row (the matrix is transposed once per call), so every lane is
    contiguous in memory.  A one-column call is the same kernel with one
    lane; a wider call shares the exact path's targets across its lanes,
    which it scans one after another on the calling thread.

    Per-column guarantee
    --------------------
    A column's result is independent of the batch width and of the other
    lanes: ``largest_mixing_sets(P, ℓ)[j]`` equals
    ``largest_mixing_sets(P[:, j:j + 1], ℓ)[0]`` (dataclass equality: same
    members, same deficit/mass floats, same ``sizes_examined``).

    * deviations are elementwise IEEE operations, identical regardless of
      memory layout;
    * numpy's introselect is deterministic in the value sequence of each
      lane, so a lane's selection does not depend on its neighbours, and a
      lane's certificate is computed from its own row;
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
        self._graph = graph
        self._threshold = mixing_threshold
        self._min_mass = min_mass
        self._stop_at_first_failure = bool(stop_at_first_failure)
        # Per-graph constants, hoisted out of the size loop.  The average
        # volume is computed as (volume/n)·size — the same float sequence as
        # deviation_values — so targets stay bit-identical to it.
        self._degrees = graph.degrees().astype(np.float64)
        self._volume_per_vertex = graph.volume / graph.num_vertices
        self._rejection_margins = [
            _rejection_margin(mixing_threshold, size) for size in self._sizes
        ]
        # The scan order: ascending to the first failure, else descending.
        self._scan = list(zip(self._sizes, self._rejection_margins))
        if not self._stop_at_first_failure:
            self._scan.reverse()
        self._certificate = _RejectionCertificate(graph.degrees(), self._scan)

    @property
    def candidate_sizes(self) -> list[int]:
        """The candidate-size schedule (read-only copy)."""
        return list(self._sizes)

    @classmethod
    def from_parameters(
        cls,
        graph: Graph,
        parameters: "CDRWParameters",
        initial_size: int,
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
        # One distribution per row: each lane is contiguous in memory.  The
        # transpose changes layout only, never a lane's value sequence.
        rows = np.ascontiguousarray(matrix.T)
        targets: dict[int, np.ndarray] = {}
        return [self._scan_lane(row, walk_length, targets) for row in rows]

    def _scan_lane(
        self, lane: np.ndarray, walk_length: int, targets: dict[int, np.ndarray]
    ) -> LargestMixingSet:
        """Scan the candidate schedule for one lane (one row of the transposed matrix).

        The lane retires at its first accepted size on the default
        descending scan, or at its first failing size on the ascending
        ``stop_at_first_failure`` scan.  A size below ``n`` that the
        certificate rejects costs no O(n) pass (on the ascending scan it is
        the lane's first failure).  Every other size runs the exact path:
        the deviations,
        ``argpartition``, the chosen ids sorted, deviations and masses
        gathered and summed in id order.  Only the exact path writes
        members, deficits and masses.  ``targets`` caches the exact path's
        targets per size across the lanes of one call.
        """
        num_vertices = lane.shape[0]
        threshold = self._threshold
        ascending = self._stop_at_first_failure
        scan = self._scan
        certificate = self._certificate
        order: _LaneOrder | None = None
        run_index = -1
        verdicts: list[bool] = []
        best_size, best_deficit, best_mass = 0, 0.0, 0.0
        best_members: np.ndarray | None = None
        # The paper's cost: the ascending schedule up to the first failure,
        # else the whole schedule.
        examined = len(scan)
        index = 0
        while index < len(scan):
            size = scan[index][0]
            slot = certificate.slots[index]
            if slot is not None:
                run, offset = slot
                if run != run_index:
                    if run_index < 0:
                        order = certificate.order(lane)
                    run_index = run
                    verdicts = (
                        certificate.verdicts(order, certificate.runs[run])
                        if order is not None
                        else []
                    )
                if verdicts and verdicts[offset]:
                    if ascending:
                        examined = index + 1
                        break
                    # On to the run's next uncertified size, or past the run.
                    try:
                        index += verdicts.index(False, offset) - offset
                    except ValueError:
                        index += len(verdicts) - offset
                    continue
            size_targets = targets.get(size)
            if size_targets is None:
                size_targets = targets[size] = self._degrees / (self._volume_per_vertex * size)
            deviations = np.subtract(lane, size_targets)
            np.absolute(deviations, out=deviations)
            if size >= num_vertices:
                chosen = None
                deficit = float(deviations.sum())
                mass = float(lane.sum())
            else:
                # The exact path: argpartition, then the chosen ids in
                # ascending order, summed pairwise in that order.
                chosen = np.argpartition(deviations, size - 1)[:size]
                chosen.sort()
                deficit = float(deviations.take(chosen).sum())
                mass = float(lane.take(chosen).sum())
            if deficit < threshold and mass >= self._min_mass:
                best_size, best_deficit, best_mass = size, deficit, mass
                best_members = (
                    np.arange(num_vertices, dtype=np.int64)
                    if chosen is None
                    # Copy: the slice must not keep the size-n index array
                    # alive.
                    else chosen.copy()
                )
                if not ascending:
                    break
            elif deficit >= threshold and ascending:
                examined = index + 1
                break
            index += 1
        return LargestMixingSet(
            walk_length=walk_length,
            size=best_size,
            members=(
                frozenset(best_members.tolist()) if best_members is not None else frozenset()
            ),
            deficit=best_deficit,
            mass=best_mass,
            sizes_examined=examined,
        )
