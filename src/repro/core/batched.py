"""Batched multi-seed CDRW execution: the one detection loop of Algorithm 1.

The pool loop of Algorithm 1 runs one full community detection per drawn
seed.  Each detection is independent of the pool state — the community of
``s`` depends only on the graph and ``s`` — so several seeds can share the
expensive part of the work: the per-step walk advance.
:func:`_detect_community_batch_impl` runs ``B`` detections simultaneously on
top of one :class:`~repro.randomwalk.batched.BatchedWalkDistribution` (one
CSR sparse-matrix–matrix product per walk step instead of ``B``
matrix–vector products).  The mixing-set search is batched as well: one
:class:`~repro.core.mixing_set.BatchedMixingSetSearch` call per walk step
evaluates every active column simultaneously (length 1 is searched on
demand, see below), while the per-seed
:class:`~repro.core.stopping.GrowthStoppingRule` stays scalar and untouched.
Walks whose detection stops early are dropped from the batch (``retain``),
so a batch costs no more steps than its slowest member.

This is the only detection loop of every backend that computes with the
centralized arithmetic: the ``"scalar"`` backend runs it at width 1, the
``"batched"`` and ``"parallel"`` backends run it on the calling thread or
inside each process-tier worker (:mod:`repro.execution_process`), and the
``"kmachine"`` simulator runs it at width 1 with a per-step callback that
charges the simulated communication (Section III-B of the paper builds the
k-machine algorithm by simulating the CONGEST one).  Every call reads δ,
the walk budget, the operator and the search from one
:class:`~repro.core.prepared.Prepared` context.  Because the batched walk
columns are bit-identical to scalar walks (see
:mod:`repro.randomwalk.batched`), every ``CommunityResult`` is identical to
the plain one-walk-per-seed loop of the paper — ``tests/cdrw_oracle.py``
keeps that loop as the reference the identity suites compare against.

The length-1 set is searched on demand
--------------------------------------
The stopping rule (Algorithm 1 line 18) compares ``|S_ℓ|`` with
``|S_{ℓ−1}|`` only, so ``S_1`` can never stop a walk: it is read only as
the predecessor of a found ``S_2``, or as the fallback of a walk that finds
nothing later.  Unless every length is read (``capture_history`` or an
``on_step`` callback), the loop steps to length 1 without searching, and
searches ``S_1`` only for the walks whose ``S_2`` is found (fed to their
rules before ``S_2``) and, once the budget ends, for the walks that found
no set after length 1 (``max_walk_length`` 1 included).  Outputs are
unchanged: ``observe(S_1)`` never stops (there is no previous set); after
a not-found ``S_2`` the rule's state is the same either way (previous
``S_2``, streak 0); and a stop reason is recorded only at the stopping
length.  The ``p_1`` columns a late search reads are rebuilt from the
seeds (:meth:`~repro.randomwalk.batched.BatchedWalkDistribution.first_step_columns`),
bit-identical to the walk's own.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..exceptions import AlgorithmError
from ..randomwalk.batched import BatchedWalkDistribution
from .cdrw import _edgeless_community, _ensure_seed
from .mixing_set import LargestMixingSet
from .prepared import Prepared
from .result import CommunityResult
from .stopping import GrowthStoppingRule

__all__: list[str] = []


def _detect_community_batch_impl(
    prepared: Prepared,
    seeds: list[int] | tuple[int, ...] | np.ndarray,
    *,
    capture_distributions: bool = False,
    capture_history: bool = True,
    on_step: Callable[[np.ndarray, list[LargestMixingSet]], None] | None = None,
) -> tuple[list[CommunityResult], np.ndarray | None]:
    """Detect the community of every seed in ``seeds`` on one shared walk.

    Returns the results in seed order and, with ``capture_distributions``,
    the ``(n, len(seeds))`` matrix of final walk distributions (``None``
    otherwise).

    ``capture_history=False`` skips accumulating the per-step mixing-set
    traces (each result's ``history`` is empty); communities, walk lengths,
    stop reasons and δ are unchanged — the stopping rules consume each
    step's mixing set directly, never the accumulated lists.  Without
    history or ``on_step`` the length-1 set is searched only for the walks
    that read it: those whose length-2 set is found, and those that end
    their budget with no set found after length 1 (see the module
    docstring for why this is exact).  With either, every walk reads it.

    ``on_step(previous, currents)`` is called once per walk length after
    the search, with the ``(n, B)`` distribution *before* that step (a
    read-only view of the active columns) and the step's mixing sets.  The
    k-machine backend charges its simulated communication there; the
    detection itself never reads it.

    An edgeless graph (or an empty seed list) takes a fast path before
    ``prepared`` is read at all: every seed is its own community and no δ,
    operator or search is built.
    """
    graph = prepared.graph
    seed_list = [int(s) for s in seeds]
    for seed_vertex in seed_list:
        if seed_vertex not in graph:
            raise AlgorithmError(f"seed vertex {seed_vertex} is not a vertex of {graph!r}")
    if graph.num_edges == 0 or not seed_list:
        results = [_edgeless_community(seed_vertex) for seed_vertex in seed_list]
        if not capture_distributions:
            return results, None
        finals = np.zeros((graph.num_vertices, len(seed_list)), dtype=np.float64)
        finals[seed_list, np.arange(len(seed_list))] = 1.0
        return results, finals

    delta = prepared.delta
    max_walk_length = prepared.max_walk_length
    search = prepared.search
    stoppings = [GrowthStoppingRule(delta=delta) for _ in seed_list]
    walk = BatchedWalkDistribution(
        graph, seed_list, lazy=prepared.parameters.lazy_walk, operator=prepared.operator
    )

    num_seeds = len(seed_list)
    histories: list[list[LargestMixingSet]] = [[] for _ in range(num_seeds)]
    last_found: list[LargestMixingSet | None] = [None] * num_seeds
    finished: dict[int, CommunityResult] = {}
    finals = (
        np.zeros((graph.num_vertices, num_seeds), dtype=np.float64)
        if capture_distributions
        else None
    )
    active = list(range(num_seeds))  # walk column c holds seed index active[c]
    # S_1 never stops a walk, so unless every length is read it is searched
    # only for the lanes that read it: see the module docstring.
    every_length_read = capture_history or on_step is not None

    def read_first(columns: Sequence[int], firsts_at: np.ndarray) -> list[LargestMixingSet]:
        """Search S_1 of the given walk columns (p_1 in ``firsts_at``) and observe it."""
        firsts = search.largest_mixing_sets(firsts_at, 1)
        for column, first in zip(columns, firsts):
            index = active[column]
            if capture_history:
                histories[index].append(first)
            if first.found:
                last_found[index] = first
            stoppings[index].observe(first)  # never stops: there is no previous set
        return firsts

    for length in range(1, max_walk_length + 1):
        previous = walk.probabilities()
        walk.step()
        if length == 1:
            if every_length_read:
                firsts = read_first(range(len(active)), walk.probabilities())
                if on_step is not None:
                    on_step(previous, firsts)
            continue
        # One batched search per step evaluates every active column at once.
        currents = search.largest_mixing_sets(walk.probabilities(), length)
        if on_step is not None:
            on_step(previous, currents)
        if length == 2 and not every_length_read:
            readers = [column for column, current in enumerate(currents) if current.found]
            if readers:
                read_first(readers, walk.first_step_columns(readers))
        stopped_columns: set[int] = set()
        for column, index in enumerate(active):
            current = currents[column]
            if capture_history:
                histories[index].append(current)
            if current.found:
                last_found[index] = current
            decision = stoppings[index].observe(current)
            if decision.should_stop and decision.community is not None:
                finished[index] = CommunityResult(
                    seed=seed_list[index],
                    community=_ensure_seed(decision.community.members, seed_list[index]),
                    walk_length=length,
                    history=tuple(histories[index]),
                    stop_reason=decision.reason,
                    delta=delta,
                )
                if finals is not None:
                    finals[:, index] = walk.column(column)
                stopped_columns.add(column)
        if stopped_columns:
            keep = [c for c in range(len(active)) if c not in stopped_columns]
            active = [active[c] for c in keep]
            if not active:
                break
            walk.retain(keep)

    # Budget exhausted without triggering the growth rule for the survivors:
    # fall back to the last mixing set found, or the seed alone (scalar rule).
    # A lane with no found set after length 1 has not read S_1 yet when S_1
    # is deferred, and S_1 may be its last found set.
    if not every_length_read:
        unread = [c for c, index in enumerate(active) if last_found[index] is None]
        if unread:
            read_first(unread, walk.first_step_columns(unread))
    if active and finals is not None:
        finals[:, active] = walk.columns(range(len(active)))
    for index in active:
        if last_found[index] is not None:
            members = _ensure_seed(last_found[index].members, seed_list[index])
            stop_reason = "walk length budget exhausted"
        else:
            members = frozenset({seed_list[index]})
            stop_reason = "no mixing set found within the walk budget"
        finished[index] = CommunityResult(
            seed=seed_list[index],
            community=members,
            walk_length=max_walk_length,
            history=tuple(histories[index]),
            stop_reason=stop_reason,
            delta=delta,
        )
    return [finished[index] for index in range(num_seeds)], finals
