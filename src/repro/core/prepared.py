"""One detection call's prepared context: Algorithm 1's per-graph quantities.

Algorithm 1 resolves three quantities once per graph before any seed runs:
the stopping parameter δ = Φ_G (line 18), the initial candidate size
R = log n (line 6) and the O(log n) walk budget (line 8).  :class:`Prepared`
holds them — together with the walk's transition operator and the batched
mixing-set search, which carries R — for one ``(graph, parameters)`` pair, so
every seed and every round of a :func:`repro.api.detect` call reads them from
one place instead of re-deriving them.

Each derived field is built on first use and then kept.  Two consequences:

* an edgeless or empty graph, whose seeds take the batch driver's fast
  path, never resolves δ or builds an operator (a spectral estimate of an
  edgeless graph is meaningless);
* the process tier's parent process resolves :attr:`Prepared.delta` and
  ships it resolved to the workers, each of which keeps its own
  :class:`Prepared` for the ``(parameters, δ)`` it last saw; the
  parent builds the operator and the search only for a round it runs on
  its own thread (one seed, or a one-worker pool).

Every field is a deterministic function of the constructor arguments, so a
cached :class:`Prepared` (a resident :class:`~repro.session.DetectionSession`
keeps one per knob set) changes no float.  A :class:`Prepared` serves one
call at a time — a session admits one call at a time — so its lazily built
fields need no lock of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import scipy.sparse as sp

from ..graphs.graph import Graph
from ..randomwalk.batched import transition_operator
from .mixing_set import BatchedMixingSetSearch
from .parameters import CDRWParameters

__all__ = ["Prepared"]


@dataclass(frozen=True, eq=False)
class Prepared:
    """Algorithm 1's per-graph state for one detection call, resolved once.

    Attributes
    ----------
    graph:
        The graph every seed of the call runs on.
    parameters:
        The algorithmic knobs (:class:`~repro.core.parameters.CDRWParameters`).
    delta_hint:
        Caller-known conductance for δ resolution (see
        :meth:`~repro.core.parameters.CDRWParameters.resolve_delta`).  A
        resolved δ passed back in as the hint reproduces itself exactly.
    """

    graph: Graph
    parameters: CDRWParameters = field(default_factory=CDRWParameters)
    delta_hint: float | None = None

    @cached_property
    def delta(self) -> float:
        """The stopping parameter δ (line 18); the spectral estimate runs at most once."""
        return self.parameters.resolve_delta(self.graph, self.delta_hint)

    @cached_property
    def max_walk_length(self) -> int:
        """The walk-length budget (line 8)."""
        return self.parameters.resolve_max_walk_length(self.graph)

    @cached_property
    def operator(self) -> sp.csr_matrix:
        """The batched walk's transition operator."""
        return transition_operator(self.graph, self.parameters.lazy_walk)

    @cached_property
    def search(self) -> BatchedMixingSetSearch:
        """The batched mixing-set search, starting at R = log n (line 6).

        The search is stateless across walk lengths and batches, so one
        instance serves every round of the call.
        """
        return BatchedMixingSetSearch.from_parameters(
            self.graph,
            self.parameters,
            self.parameters.resolve_initial_size(self.graph),
        )
