"""Batched multi-seed random-walk distributions.

:class:`BatchedWalkDistribution` advances ``B`` independent walk
distributions *simultaneously*: the per-seed probability vectors are the
columns of an ``(n, B)`` matrix and one step is a single CSR
sparse-matrix–matrix product ``P_ℓ = Aᵀ P_{ℓ-1}`` instead of ``B`` separate
matrix–vector products.  The flop count per step is the same — O(m·B) — but
the sparse operator is traversed once per step rather than ``B`` times, which
is what makes 64-seed batches an order of magnitude faster than 64 scalar
:class:`~repro.randomwalk.distribution.WalkDistribution` objects on large
graphs (see ``benchmarks/bench_graph_kernel.py``).

Equivalence guarantee
---------------------
scipy's CSR matrix–matrix kernel accumulates each output column in exactly
the same order as its matrix–vector kernel, so column ``j`` after any number
of steps is **bit-identical** to a scalar ``WalkDistribution`` started from
``sources[j]`` — not merely close.  ``tests/test_batched_walk.py`` asserts
exact equality step for step; the batched CDRW driver in
:mod:`repro.core.batched` relies on it to reproduce the sequential
algorithm's output exactly.

Storage
-------
The distributions live in one C-contiguous ``(n, B)`` matrix and each step
replaces it with ``operator @ matrix``: scipy reads a contiguous operand
without copying it, and the product is the next matrix.  The walk step is
a small share of a detection (the mixing-set search dominates), so it runs
on the calling thread; ``workers`` parallelises the search lanes only
(:class:`~repro.core.mixing_set.BatchedMixingSetSearch`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..exceptions import RandomWalkError
from ..graphs.graph import Graph
from .transition import lazy_transition_matrix, reverse_transition_matrix

__all__ = ["BatchedWalkDistribution", "transition_operator"]


def transition_operator(graph: Graph, lazy: bool = False) -> sp.csr_matrix:
    """The reverse transition operator one batched walk step multiplies by.

    A deterministic function of the graph and ``lazy``: a cached copy is the
    exact matrix a fresh walk would build (same floats, same sparsity).
    """
    if lazy:
        return lazy_transition_matrix(graph).T.tocsr()
    return reverse_transition_matrix(graph)


class BatchedWalkDistribution:
    """``B`` exact walk distributions advanced together, one SpMM per step.

    Parameters
    ----------
    graph:
        Graph on which the walks run.
    sources:
        Seed vertices, one per walk; duplicates are allowed (the walks are
        independent).  Must be non-empty.
    lazy:
        When ``True`` use the lazy walk (stay put with probability 1/2), as
        in :class:`~repro.randomwalk.distribution.WalkDistribution`.
    operator:
        Optional pre-built reverse transition operator (the transposed CSR
        matrix the walk would otherwise construct from ``graph`` and
        ``lazy``).  Operator construction is a deterministic function of the
        graph (:func:`transition_operator`), so supplying a cached copy — as
        :class:`repro.core.prepared.Prepared` does for every walk of one
        detection call — changes no float; it only skips the O(m) rebuild.
    """

    def __init__(
        self,
        graph: Graph,
        sources: Sequence[int],
        lazy: bool = False,
        operator: sp.csr_matrix | None = None,
    ):
        # One vectorized bounds check replaces the former per-element
        # `s not in graph` loop (which dominated construction at B in the
        # thousands); the error messages are unchanged.
        source_array = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        if source_array.ndim != 1:
            raise RandomWalkError(
                f"sources must be a flat sequence of vertices, got shape {source_array.shape}"
            )
        if source_array.size == 0:
            raise RandomWalkError("batched walk needs at least one source vertex")
        out_of_range = (source_array < 0) | (source_array >= graph.num_vertices)
        if out_of_range.any():
            bad = int(source_array[int(np.argmax(out_of_range))])
            raise RandomWalkError(f"source {bad} is not a vertex of {graph!r}")
        self._graph = graph
        self._sources = tuple(source_array.tolist())
        self._lazy = bool(lazy)
        if operator is not None:
            n = graph.num_vertices
            if operator.shape != (n, n):
                raise RandomWalkError(
                    f"cached walk operator has shape {operator.shape}, "
                    f"expected {(n, n)} for {graph!r}"
                )
            self._operator: sp.csr_matrix = operator
        else:
            self._operator = transition_operator(graph, self._lazy)
        self._matrix = self._one_hot()
        self._steps = 0

    def _one_hot(self) -> np.ndarray:
        """The length-0 distributions: all of walk ``j``'s mass on ``sources[j]``."""
        matrix = np.zeros((self._graph.num_vertices, len(self._sources)), dtype=np.float64)
        matrix[list(self._sources), np.arange(len(self._sources))] = 1.0
        return matrix

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The underlying graph."""
        return self._graph

    @property
    def sources(self) -> tuple[int, ...]:
        """The seed vertex of every walk, in column order."""
        return self._sources

    @property
    def num_walks(self) -> int:
        """The batch width ``B``."""
        return len(self._sources)

    @property
    def steps(self) -> int:
        """The number of steps taken so far (the current walk length ``ℓ``)."""
        return self._steps

    @property
    def lazy(self) -> bool:
        """Whether the lazy walk is used."""
        return self._lazy

    def probabilities(self) -> np.ndarray:
        """Return the current ``(n, B)`` distribution matrix (read-only view)."""
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def column(self, walk: int) -> np.ndarray:
        """Return walk ``walk``'s distribution ``p_ℓ`` as a contiguous read-only vector."""
        if not (0 <= walk < len(self._sources)):
            raise RandomWalkError(
                f"walk index {walk} out of range for a batch of {len(self._sources)}"
            )
        vector = np.ascontiguousarray(self._matrix[:, walk])
        vector.flags.writeable = False
        return vector

    def columns(self, walks: Sequence[int]) -> np.ndarray:
        """Return a contiguous ``(n, k)`` read-only copy of the selected walk columns.

        Column ``i`` of the result equals :meth:`column` of ``walks[i]``
        (bit-identical — the gather copies each column unchanged).  Drivers
        use this to snapshot several final distributions in one call, e.g.
        when the walk-length budget expires for the surviving columns of a
        batched detection.
        """
        indices = np.asarray([int(w) for w in walks], dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= len(self._sources)):
            raise RandomWalkError(
                f"walk indices {walks!r} out of range for a batch of {len(self._sources)}"
            )
        matrix = self._matrix.take(indices, axis=1)
        matrix.flags.writeable = False
        return matrix

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def step(self, count: int = 1) -> np.ndarray:
        """Advance all walks by ``count`` steps and return the distribution matrix."""
        if count < 0:
            raise RandomWalkError(f"cannot step a negative number of times: {count}")
        for _ in range(count):
            self._matrix = self._operator @ self._matrix
            self._steps += 1
        return self.probabilities()

    def run_to(self, length: int) -> np.ndarray:
        """Advance all walks until their length equals ``length`` (no rewinding)."""
        if length < self._steps:
            raise RandomWalkError(
                f"walks are already at length {self._steps}, cannot rewind to {length}"
            )
        return self.step(length - self._steps)

    def restart(self) -> None:
        """Reset every walk to length 0 (all mass at its seed)."""
        self._matrix = self._one_hot()
        self._steps = 0

    # ------------------------------------------------------------------
    # Batch maintenance
    # ------------------------------------------------------------------
    def retain(self, walks: Sequence[int]) -> None:
        """Narrow the batch to the given walk columns (in the given order).

        Drivers use this to drop walks whose detection already stopped, so
        later steps spend no flops on finished columns.  The step counter is
        shared by all columns and is unchanged; the surviving columns are
        copied into a fresh C-contiguous matrix.
        """
        kept = np.asarray([int(w) for w in walks], dtype=np.int64)
        if kept.size == 0:
            raise RandomWalkError("cannot retain an empty set of walks")
        if kept.min() < 0 or kept.max() >= len(self._sources):
            raise RandomWalkError(
                f"walk indices {walks!r} out of range for a batch of {len(self._sources)}"
            )
        self._matrix = self._matrix.take(kept, axis=1)
        self._sources = tuple(self._sources[int(w)] for w in kept)

    # ------------------------------------------------------------------
    # Restrictions (Section I-C)
    # ------------------------------------------------------------------
    def mass_in(self, subset: np.ndarray | list[int]) -> np.ndarray:
        """Return each walk's probability mass inside ``subset`` as a ``(B,)`` vector.

        Each column is summed contiguously so the result is bit-identical to
        ``WalkDistribution.mass_in`` (an axis-0 sum over the 2-D gather would
        block the pairwise summation differently and drift in the last ulp).
        """
        indices = np.asarray(list(subset), dtype=np.int64)
        gathered = self._matrix[indices, :]
        return np.array(
            [float(np.ascontiguousarray(gathered[:, j]).sum()) for j in range(gathered.shape[1])]
        )

    def __repr__(self) -> str:
        return (
            f"BatchedWalkDistribution(num_walks={len(self._sources)}, "
            f"steps={self._steps}, lazy={self._lazy})"
        )
