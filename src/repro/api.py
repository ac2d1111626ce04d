"""Unified detection engine: one ``detect()`` facade over every execution backend.

The CDRW algorithm has one definition but many executors — the scalar pool
loop, the batched multi-seed executor, the parallel shared-walk variant, the
CONGEST message-level simulation, the k-machine simulation, and the
related-work baselines.  Historically each was its own entry point with its
own ad-hoc signature of ``seed``/``workers``/``batch_size`` knobs.
This module makes the executors *backends* behind a single stable surface:

* a **registry** (:func:`register_backend` / :func:`get_backend` /
  :func:`available_backends`) mapping names — ``"scalar"``, ``"batched"``,
  ``"parallel"``, ``"congest"``, ``"kmachine"`` and the related-work methods
  as ``"baseline:<name>"`` — to :class:`Backend` entries, so a new executor
  (distributed, GPU, streaming) is a registry entry instead of an eighth
  bespoke function;
* a frozen :class:`RunConfig` dataclass unifying every *execution* knob (rng
  seed, explicit seed vertices, ``workers``, ``batch_size``, the
  seed-spreading policy, machine counts, capture flags) next to the existing
  *algorithmic* :class:`~repro.core.parameters.CDRWParameters`;
* the :func:`detect` facade — ``detect(graph, backend="batched",
  params=..., config=...)`` — which resolves the backend, times the run and
  wraps the outcome in a :class:`RunReport`;
* :class:`RunReport`, a structured, JSON-serializable record bundling the
  :class:`~repro.core.result.DetectionResult`, per-phase cost reports (which
  sum — ``sum(report.phase_costs.values())`` — to the backend's total
  cost), wall-clock timings, and backend metadata.

:func:`detect` is the only detection entry point: the CLI, the
experiments, the benchmarks, the examples, the resident session and the
service all run through it.  Every CDRW backend that draws seeds from the
pool runs the one pool loop of Algorithm 1,
:func:`repro.core.cdrw._pool_loop`, so the RNG draw sequence is shared by
construction; ``tests/test_api.py`` pins it to the draws recorded before the
registry existed.  The centralized backends share one detection loop too:
``"scalar"`` is the ``"batched"`` runner at width 1, and ``"batched"`` and
``"parallel"`` each have one runner body for one-shot and session calls on
both execution tiers — the tier only decides what runs one round of seeds
(:data:`RoundRunner`).
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from dataclasses import asdict, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping, TypeVar

import numpy as np

from .baselines.averaging import averaging_dynamics
from .baselines.clementi import clementi_two_communities
from .baselines.label_propagation import label_propagation
from .baselines.spectral import spectral_clustering
from .baselines.walktrap import walktrap_communities
from .congest.network import CostReport
from .core.cdrw import _pool_loop
from .core.mixing_set import LargestMixingSet
from .core.parallel import _merge_and_resolve, select_spread_seeds
from .execution import EXECUTOR_PROCESS, EXECUTOR_THREAD
from .core.parameters import CDRWParameters
from .core.result import CommunityResult, DetectionResult
from .exceptions import AlgorithmError, BackendError
from .graphs.graph import Graph
from .graphs.partition import Partition
from .kmachine.simulator import KMachineCost
from .utils import as_rng

if TYPE_CHECKING:
    from .session import DetectionSession

__all__ = [
    "Backend",
    "BackendOutcome",
    "RunConfig",
    "RunReport",
    "available_backends",
    "detect",
    "get_backend",
    "register_backend",
    "split_batched_report",
    "unregister_backend",
]


# ----------------------------------------------------------------------
# Run configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunConfig:
    """Execution knobs shared by every backend, one immutable object.

    Algorithmic parameters (thresholds, schedules, δ) stay in
    :class:`~repro.core.parameters.CDRWParameters`; this class holds only
    *how* a detection is executed.  Backends read the fields they understand
    and ignore the rest, so one config can be reused across backends.

    Attributes
    ----------
    seed:
        RNG seed (or an existing :class:`numpy.random.Generator`) driving the
        pool draws / baseline randomness.  Generators are accepted for
        call-site compatibility but are not JSON-serializable (serialized as
        ``None``).
    seeds:
        Optional explicit seed vertices.  When set, they are processed in
        the given order on every CDRW backend: they replace the pool draws
        of the scalar, batched, congest and kmachine backends and the
        spread-seed draw of the parallel backend (``max_seeds`` caps them).
        Without them, a ``seed`` of ``None`` makes both draws unseeded
        (``as_rng(None)``).
    max_seeds:
        Optional cap on the number of seeds processed (``>= 0``).
    batch_size:
        Seeds per batched pass (batched backend; ``1`` reproduces the scalar
        pool loop RNG-exactly).
    workers:
        Worker-process count of the ``"process"`` executor (``None`` → the
        ``REPRO_WORKERS`` environment override, default serial; ``0`` → all
        cores).  The ``"thread"`` executor validates the field and the
        override and otherwise ignores both: it runs every round, walk and
        search on the calling thread.  Results are identical for every
        value on either tier.
    executor:
        Execution tier of the ``batched`` and ``parallel`` backends:
        ``"thread"`` (in-process batched kernels, the default) or
        ``"process"`` (seed shards on a worker-process pool sharing the CSR
        graph through :mod:`multiprocessing.shared_memory` — see
        :mod:`repro.execution_process`).  ``None`` defers to the
        ``REPRO_EXECUTOR`` environment override, default ``"thread"``.
        Everything the run *computes* — detections, cost totals, artifacts —
        is identical across tiers; the report fields that *describe* the run
        (``config``, wall-clock ``timings``, executor metadata) naturally
        name the tier that produced them.
    num_communities:
        The community-count estimate ``r``: the number of simultaneously
        started seeds of the parallel backend, and the cluster count of the
        ``baseline:spectral`` / ``baseline:walktrap`` backends.
    seed_min_distance:
        Minimum pairwise hop distance between spread seeds (parallel
        backend's seed-spreading policy).
    overlap_merge_threshold:
        Jaccard overlap above which two parallel detections are considered
        duplicates of the same block.
    num_machines:
        Machine count ``k`` of the kmachine backend.
    partition_seed:
        Seed of the kmachine random vertex partition.
    count_only:
        CONGEST backend: charge the identical round/message schedule without
        materialising per-hop message objects (``False`` only on small
        graphs).
    capture_history:
        Whether the per-step mixing-set history traces are built at all.
        With the default ``True`` every
        :class:`~repro.core.result.CommunityResult` carries its full trace
        and :meth:`RunReport.to_dict` serializes it (the bulk of a
        serialized report).  ``False`` skips constructing the traces
        end-to-end on the scalar, batched and parallel backends — the
        detect loops never accumulate them and process-tier workers never
        build or pickle them — so each result's ``history`` is empty;
        the detected communities, walk lengths, stop reasons, δ and every
        cost total are unchanged (the stopping rule consumes each step's
        mixing set directly, never the accumulated list).  It also skips
        reading the length-1 mixing set, which can never stop a walk: that
        set is searched only for the walks whose length-2 set is found, or
        that find no set after length 1 within the budget.  The congest,
        kmachine and baseline backends ignore the flag at run time (their
        native results carry no per-step traces to skip) but still honor
        it at serialization time.
    capture_distributions:
        Batched backend only: store each community's final walk distribution
        in :attr:`RunReport.artifacts` under ``"final_distributions"`` (one
        row per detected community, aligned with ``detection.communities``).
        Opt-in — the artefact is ``n`` floats per community.
    """

    seed: int | np.random.Generator | None = None
    seeds: tuple[int, ...] | None = None
    max_seeds: int | None = None
    batch_size: int = 8
    workers: int | None = None
    executor: str | None = None
    num_communities: int | None = None
    seed_min_distance: int = 2
    overlap_merge_threshold: float = 0.5
    num_machines: int = 4
    partition_seed: int | None = None
    count_only: bool = True
    capture_history: bool = True
    capture_distributions: bool = False

    def __post_init__(self) -> None:
        if self.seeds is not None:
            object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.max_seeds is not None and self.max_seeds < 0:
            raise BackendError(f"max_seeds must be >= 0, got {self.max_seeds}")
        if self.workers is not None and self.workers < 0:
            raise BackendError(f"workers must be >= 0 (0 = all cores), got {self.workers}")
        if self.executor is not None and self.executor not in (
            EXECUTOR_THREAD,
            EXECUTOR_PROCESS,
        ):
            raise BackendError(
                f"executor must be '{EXECUTOR_THREAD}' or '{EXECUTOR_PROCESS}' "
                f"(or None for the REPRO_EXECUTOR default), got {self.executor!r}"
            )

    def with_overrides(self, **changes: object) -> "RunConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_dict(self) -> dict:
        """Return a JSON-safe dict (external Generator seeds become ``None``)."""
        data = asdict(self)
        if not (self.seed is None or isinstance(self.seed, int)):
            data["seed"] = None
        if self.seeds is not None:
            data["seeds"] = list(self.seeds)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Keys this version does not know are dropped, except ``dtype``, which
        reports written before 4.0.0 carry: such a report loads only if its
        run scanned in float64, the one precision the search has.
        """
        dtype = data.get("dtype", "float64")
        if dtype != "float64":
            raise BackendError(
                f"config dtype {dtype!r} is not supported: the search runs in float64 only"
            )
        known = {f.name for f in fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in known}
        if kwargs.get("seeds") is not None:
            kwargs["seeds"] = tuple(kwargs["seeds"])
        return cls(**kwargs)


# ----------------------------------------------------------------------
# Backend protocol and registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackendOutcome:
    """What a backend runner hands back to the :func:`detect` facade.

    Attributes
    ----------
    detection:
        The detected communities (always present, every backend).
    phase_costs:
        Named per-phase cost reports; values support ``+`` and ``sum`` so
        the facade can aggregate them (:class:`~repro.congest.network.CostReport`
        or :class:`~repro.kmachine.simulator.KMachineCost`).  Empty for
        purely local backends.
    timings:
        Backend-internal wall-clock phases (the facade adds
        ``total_seconds``).
    extras:
        JSON-safe backend metadata (e.g. BFS depths, convergence flags).
    artifacts:
        JSON-safe opt-in payloads (e.g. the final walk distributions when
        ``config.capture_distributions`` is set); carried into
        :attr:`RunReport.artifacts` and serialized with the report.
    native:
        The backend's full native result object (e.g.
        ``CongestDetectionResult``), for callers that need more than the
        unified view.  Not serialized.
    """

    detection: DetectionResult
    phase_costs: dict[str, CostReport | KMachineCost] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    extras: dict[str, object] = field(default_factory=dict)
    artifacts: dict[str, object] = field(default_factory=dict)
    native: object = None


Runner = Callable[
    [Graph, CDRWParameters | None, RunConfig, float | None], BackendOutcome
]

#: Runs one round of seeds on a call's execution tier: ``(seeds, batch_size,
#: capture_distributions) -> (results in seed order, the final walk
#: distributions or None)``.  The thread tier runs the batch driver, the
#: process tier shards the round across the worker pool.
RoundRunner = Callable[
    [list[int], int, bool], tuple[list[CommunityResult], "np.ndarray | None"]
]

_T = TypeVar("_T")


@dataclass(frozen=True)
class Backend:
    """A registered detection backend: a name, a description, and a runner.

    ``supports_session`` marks runners that accept the extra ``session``
    keyword argument of the resident-service path
    (:class:`~repro.session.DetectionSession`); the facade only forwards a
    session to such backends, so four-argument runners keep working
    unchanged.  The built-in ``"batched"`` and ``"parallel"`` runners have
    one body for both cases: without a session they run on one that lives
    only for the call.
    """

    name: str
    description: str
    runner: Runner
    supports_session: bool = False

    def run(
        self,
        graph: Graph,
        params: CDRWParameters | None = None,
        config: RunConfig | None = None,
        delta_hint: float | None = None,
    ) -> BackendOutcome:
        """Execute this backend (without the facade's report wrapping)."""
        return self.runner(graph, params, config or RunConfig(), delta_hint)


_registry: dict[str, Backend] = {}


def register_backend(
    name: str,
    runner: Runner,
    description: str = "",
    replace_existing: bool = False,
    supports_session: bool = False,
) -> Backend:
    """Register a detection backend under ``name`` and return its entry.

    ``supports_session`` declares that ``runner`` accepts the keyword-only
    ``session`` argument (see :class:`Backend`).  Raises
    :class:`~repro.exceptions.BackendError` when the name is already taken,
    unless ``replace_existing`` is set.
    """
    if not name or not isinstance(name, str):
        raise BackendError(f"backend name must be a non-empty string, got {name!r}")
    if name in _registry and not replace_existing:
        raise BackendError(
            f"backend {name!r} is already registered; pass replace_existing=True "
            f"to override it"
        )
    backend = Backend(
        name=name,
        description=description,
        runner=runner,
        supports_session=supports_session,
    )
    _registry[name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend from the registry (raises when unknown)."""
    if name not in _registry:
        raise BackendError(_unknown_backend_message(name))
    del _registry[name]


def get_backend(name: str) -> Backend:
    """Return the registered backend ``name``.

    The error for an unknown name lists every registered backend, so a typo
    is a one-round-trip fix.
    """
    try:
        return _registry[name]
    except KeyError:
        raise BackendError(_unknown_backend_message(name)) from None


def available_backends() -> tuple[str, ...]:
    """Return the registered backend names, sorted."""
    return tuple(sorted(_registry))


def _unknown_backend_message(name: str) -> str:
    known = ", ".join(sorted(_registry)) or "(none)"
    return f"unknown backend {name!r}; available backends: {known}"


# ----------------------------------------------------------------------
# Run report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunReport:
    """Structured record of one :func:`detect` run.

    Attributes
    ----------
    backend:
        Name of the backend that ran.
    detection:
        The unified detection result.
    phase_costs:
        Named per-phase cost reports; ``sum(report.phase_costs.values())``
        (see :attr:`total_cost`) reproduces the backend's aggregate cost.
    timings:
        Wall-clock timings; always contains ``"total_seconds"``.
    metadata:
        JSON-safe context: graph size, backend description, backend extras.
    config:
        The :class:`RunConfig` the run used.
    params:
        The :class:`~repro.core.parameters.CDRWParameters` the run used
        (``None`` = paper defaults resolved inside the backend).
    artifacts:
        Opt-in JSON-safe payloads beyond the detection itself; currently
        ``"final_distributions"`` (one per-vertex probability row per
        detected community) when ``config.capture_distributions`` is set.
        Serialized and round-tripped exactly.
    native_result:
        The backend's native result object (excluded from comparison and
        serialization; ``None`` after a JSON round trip).
    """

    backend: str
    detection: DetectionResult
    phase_costs: dict[str, CostReport | KMachineCost]
    timings: dict[str, float]
    metadata: dict[str, object]
    config: RunConfig
    params: CDRWParameters | None
    artifacts: dict[str, object] = field(default_factory=dict)
    native_result: object = field(default=None, compare=False, repr=False)

    @property
    def total_cost(self) -> CostReport | KMachineCost | None:
        """Sum of the per-phase cost reports (``None`` for cost-free backends)."""
        if not self.phase_costs:
            return None
        return sum(self.phase_costs.values())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Return a JSON-safe dict; inverse of :meth:`from_dict`.

        The per-step mixing-set histories are included only when
        ``config.capture_history`` is set (the default) — they dominate the
        serialized size on long walks.
        """
        return {
            "backend": self.backend,
            "config": self.config.to_dict(),
            "params": None if self.params is None else asdict(self.params),
            "timings": dict(self.timings),
            "metadata": dict(self.metadata),
            "artifacts": dict(self.artifacts),
            "phase_costs": {
                name: _cost_to_dict(cost) for name, cost in self.phase_costs.items()
            },
            "total_cost": (
                None if self.total_cost is None else _cost_to_dict(self.total_cost)
            ),
            "detection": _detection_to_dict(
                self.detection, include_history=self.config.capture_history
            ),
        }

    def to_json(self, **dumps_kwargs: Any) -> str:
        """Serialize the report to a JSON string."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output.

        The round trip is exact (``from_dict(report.to_dict()) == report``)
        when the config's ``seed`` is an int/None and ``capture_history`` is
        on; ``native_result`` is not serialized and comes back ``None``.
        """
        params = data.get("params")
        return cls(
            backend=data["backend"],
            detection=_detection_from_dict(data["detection"]),
            phase_costs={
                name: _cost_from_dict(cost)
                for name, cost in data.get("phase_costs", {}).items()
            },
            timings=dict(data.get("timings", {})),
            metadata=dict(data.get("metadata", {})),
            config=RunConfig.from_dict(data.get("config", {})),
            params=None if params is None else CDRWParameters(**params),
            artifacts=dict(data.get("artifacts", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Rebuild a report from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


def split_batched_report(report: RunReport) -> tuple[RunReport, ...]:
    """Split an explicit-seed batched report into one report per seed.

    Per-seed results are independent of batch composition (the PR 1/2
    kernel contracts), so slicing a wave report is exact: each returned
    report carries the same detection payload — community, cost totals,
    its row of ``final_distributions`` — that a one-shot single-seed call
    would have computed, bit for bit.  This is what lets a coalescing
    front end (:class:`repro.service.DetectionService`) answer many
    single-seed requests from one ``detect_batch`` wave.

    Only cost-free explicit-seed reports split this way: the report must
    have ``config.seeds`` set, no ``phase_costs`` (the simulator backends
    charge per *run*, which has no per-seed decomposition), and one
    community per requested seed, in request order.
    """
    if report.phase_costs:
        raise BackendError(
            f"cannot split a {report.backend!r} report with phase costs: "
            f"simulated communication is charged per run, not per seed"
        )
    seeds = report.config.seeds
    if seeds is None:
        raise BackendError(
            "cannot split a pool-mode report: config.seeds is not set, so "
            "there is no per-request decomposition to recover"
        )
    communities = report.detection.communities
    if len(communities) != len(seeds):
        raise BackendError(
            f"cannot split report: {len(seeds)} requested seeds but "
            f"{len(communities)} detected communities"
        )
    finals_obj = report.artifacts.get("final_distributions")
    finals: list[object] | None = None
    if finals_obj is not None:
        if not isinstance(finals_obj, list) or len(finals_obj) != len(seeds):
            raise BackendError(
                f"cannot split report: final_distributions does not carry "
                f"one row per requested seed ({len(seeds)} seeds)"
            )
        finals = finals_obj
    singles: list[RunReport] = []
    for position, (seed_vertex, community) in enumerate(zip(seeds, communities)):
        if community.seed != seed_vertex:
            raise BackendError(
                f"cannot split report: community {position} answers seed "
                f"{community.seed}, expected {seed_vertex} (results are not "
                f"in request order)"
            )
        artifacts: dict[str, object] = {}
        if finals is not None:
            artifacts["final_distributions"] = [finals[position]]
        singles.append(
            replace(
                report,
                detection=DetectionResult(
                    num_vertices=report.detection.num_vertices,
                    communities=(community,),
                ),
                config=report.config.with_overrides(seeds=(seed_vertex,)),
                timings=dict(report.timings),
                metadata=dict(report.metadata),
                artifacts=artifacts,
                native_result=None,
            )
        )
    return tuple(singles)


def _cost_to_dict(cost: CostReport | KMachineCost) -> dict:
    if isinstance(cost, CostReport):
        return {
            "kind": "congest",
            "rounds": cost.rounds,
            "messages": cost.messages,
            "messages_by_kind": dict(cost.messages_by_kind),
        }
    if isinstance(cost, KMachineCost):
        return {
            "kind": "kmachine",
            "rounds": cost.rounds,
            "inter_machine_messages": cost.inter_machine_messages,
            "local_messages": cost.local_messages,
            "congest_rounds_routed": cost.congest_rounds_routed,
        }
    raise BackendError(f"cannot serialize cost report of type {type(cost).__name__}")


def _cost_from_dict(data: Mapping) -> CostReport | KMachineCost:
    kind = data.get("kind")
    if kind == "congest":
        return CostReport(
            rounds=data["rounds"],
            messages=data["messages"],
            messages_by_kind=dict(data.get("messages_by_kind", {})),
        )
    if kind == "kmachine":
        return KMachineCost(
            rounds=data["rounds"],
            inter_machine_messages=data["inter_machine_messages"],
            local_messages=data["local_messages"],
            congest_rounds_routed=data["congest_rounds_routed"],
        )
    raise BackendError(f"cannot deserialize cost report of kind {kind!r}")


def _detection_to_dict(detection: DetectionResult, include_history: bool) -> dict:
    communities = []
    for result in detection.communities:
        entry = {
            "seed": result.seed,
            "community": sorted(result.community),
            "walk_length": result.walk_length,
            "stop_reason": result.stop_reason,
            "delta": result.delta,
        }
        if include_history:
            entry["history"] = [
                {
                    "walk_length": item.walk_length,
                    "size": item.size,
                    "members": sorted(item.members),
                    "deficit": item.deficit,
                    "mass": item.mass,
                    "sizes_examined": item.sizes_examined,
                }
                for item in result.history
            ]
        communities.append(entry)
    return {"num_vertices": detection.num_vertices, "communities": communities}


@functools.lru_cache(maxsize=1)
def _vertex_ids(num_vertices: int) -> tuple[int, ...]:
    """One shared ``int`` object per vertex id of a ``num_vertices`` graph.

    Decoded replies map their member ids through this table, so every
    decoded community and history entry of one graph shares the same id
    objects instead of holding fresh ones per reply.
    """
    return tuple(range(num_vertices))


#: Decoded member sets by content (the member tuple over the shared ids).
#: Weak-valued: the table shares a set among the live replies that hold
#: it but never keeps one alive by itself.
_decoded_members: "weakref.WeakValueDictionary[tuple[int, ...], frozenset[int]]" = (
    weakref.WeakValueDictionary()
)


def _decode_members(ids: tuple[int, ...], members: object) -> frozenset[int]:
    """Map a serialized member list onto the shared ids, rejecting bad ids.

    Indexing the table rejects non-integer ids (``TypeError``) and ids
    ``>= n`` (``IndexError``); a negative id would silently wrap around it,
    so the minimum is checked as well.  Equal member lists decode to one
    shared set while any reply still holds it.
    """
    if isinstance(members, list):
        try:
            key = tuple([ids[member] for member in members])
        except (IndexError, TypeError):
            pass
        else:
            if not members or min(members) >= 0:
                decoded = _decoded_members.get(key)
                if decoded is None:
                    decoded = _decoded_members.setdefault(key, frozenset(key))
                return decoded
    raise BackendError(f"members must be vertex ids in [0, {len(ids)}), got {members!r:.80}")


def _detection_from_dict(data: Mapping) -> DetectionResult:
    num_vertices = data["num_vertices"]
    if type(num_vertices) is not int or num_vertices < 0:
        raise BackendError(f"num_vertices must be an int >= 0, got {num_vertices!r}")
    ids = _vertex_ids(num_vertices)
    communities = []
    for entry in data.get("communities", ()):
        history = tuple(
            LargestMixingSet(
                walk_length=item["walk_length"],
                size=item["size"],
                members=_decode_members(ids, item["members"]),
                deficit=item["deficit"],
                mass=item["mass"],
                sizes_examined=item["sizes_examined"],
            )
            for item in entry.get("history", ())
        )
        communities.append(
            CommunityResult(
                seed=entry["seed"],
                community=_decode_members(ids, entry["community"]),
                walk_length=entry["walk_length"],
                history=history,
                stop_reason=entry["stop_reason"],
                delta=entry["delta"],
            )
        )
    return DetectionResult(num_vertices=num_vertices, communities=tuple(communities))


# ----------------------------------------------------------------------
# The facade
# ----------------------------------------------------------------------
def detect(
    graph: Graph,
    backend: str = "batched",
    params: CDRWParameters | None = None,
    config: RunConfig | None = None,
    delta_hint: float | None = None,
    session: "DetectionSession | None" = None,
    **overrides: object,
) -> RunReport:
    """Detect communities of ``graph`` with the named backend.

    This is the single entry point the CLI, the experiments, the benchmarks
    and the examples run through.  ``params`` carries the algorithmic knobs
    (:class:`~repro.core.parameters.CDRWParameters`), ``config`` the
    execution knobs (:class:`RunConfig`); keyword ``overrides`` are applied
    on top of ``config`` for one-off tweaks, e.g.
    ``detect(g, "batched", seed=7, batch_size=16)``.

    ``session`` routes the run through a resident
    :class:`~repro.session.DetectionSession` holding ``graph``: the graph
    broadcast, the worker pool and the prepared context (δ, operator,
    search) are reused across calls instead of rebuilt, with the computed
    payload bit-identical to the session-free run.  The session must have
    been created for this exact ``graph`` object, and the backend must
    support sessions (``"batched"`` and ``"parallel"``).  ``params`` /
    ``config`` / ``delta_hint`` default to the session's own when omitted.
    Without ``session``, those two backends run on a session that lives
    only for the call, so both paths share one runner.

    Each call resolves Algorithm 1's per-graph quantities once
    (:class:`~repro.core.prepared.Prepared`): without a hint, δ costs one
    spectral estimate per call on every CDRW backend, not one per seed or
    per round.

    Returns a :class:`RunReport`.  With the same knobs, pool-mode backends
    draw the seeds the pre-registry entry points drew (pinned by
    ``tests/test_api.py``), and every CDRW backend reports for a seed the
    community a plain one-walk-per-seed loop finds for it
    (``tests/cdrw_oracle.py``).  A process-tier worker that dies mid-call
    raises :class:`~repro.exceptions.WorkerCrashedError`.
    """
    entry = get_backend(backend)
    if session is not None:
        if session.closed:
            raise BackendError("the detection session is closed")
        if graph is not session.graph:
            raise BackendError(
                "detect(session=...) requires the session's own graph object: "
                "a session's broadcast and caches are keyed to one graph"
            )
        if not entry.supports_session:
            raise BackendError(
                f"backend {entry.name!r} does not support resident sessions; "
                f"session-capable backends are registered with "
                f"supports_session=True"
            )
        if params is None:
            params = session.params
        if config is None:
            config = session.config
        if delta_hint is None:
            delta_hint = session.delta_hint
    resolved = config or RunConfig()
    if overrides:
        resolved = resolved.with_overrides(**overrides)
    start = time.perf_counter()
    if session is not None:
        outcome = entry.runner(graph, params, resolved, delta_hint, session=session)
    else:
        outcome = entry.runner(graph, params, resolved, delta_hint)
    elapsed = time.perf_counter() - start
    timings = {"total_seconds": elapsed}
    timings.update(outcome.timings)
    metadata: dict[str, object] = {
        "backend_description": entry.description,
        "num_vertices": graph.num_vertices,
        "num_edges": graph.num_edges,
    }
    metadata.update(outcome.extras)
    return RunReport(
        backend=entry.name,
        detection=outcome.detection,
        phase_costs=dict(outcome.phase_costs),
        timings=timings,
        metadata=metadata,
        config=resolved,
        params=params,
        artifacts=dict(outcome.artifacts),
        native_result=outcome.native,
    )


# ----------------------------------------------------------------------
# Built-in backends
# ----------------------------------------------------------------------
def _scalar_runner(
    graph: Graph,
    params: CDRWParameters | None,
    config: RunConfig,
    delta_hint: float | None,
) -> BackendOutcome:
    # The batched driver at width 1 on the calling thread: one walk per
    # seed, the pool loop's width-1 draws, the exact float64 search.
    outcome = _batched_runner(
        graph,
        params,
        config.with_overrides(
            batch_size=1,
            executor=EXECUTOR_THREAD,
            capture_distributions=False,
        ),
        delta_hint,
    )
    return BackendOutcome(detection=outcome.detection)


def _serve(
    graph: Graph,
    session: "DetectionSession | None",
    params: CDRWParameters | None,
    config: RunConfig,
    delta_hint: float | None,
    has_seeds: bool,
    body: Callable[[RoundRunner], _T],
) -> tuple[_T, dict[str, float], dict[str, object]]:
    """Run a batched/parallel call's ``body`` on its session's residents.

    A one-shot call runs on a session that lives only for the call, so the
    pool, the broadcast and the prepared context are set up and torn down
    by the same code a resident session uses; its metadata carries no
    ``session_*`` key.  See :meth:`repro.session.DetectionSession._serve`.
    """
    if session is not None:
        return session._serve(params, config, delta_hint, has_seeds, body)
    from .session import DetectionSession

    with DetectionSession(graph) as owned:
        result, timings, extras = owned._serve(params, config, delta_hint, has_seeds, body)
    extras = {key: value for key, value in extras.items() if not key.startswith("session_")}
    return result, timings, extras


def _explicit_seeds(graph: Graph, config: RunConfig) -> list[int] | None:
    """``config.seeds`` capped at ``max_seeds`` and checked against ``graph``."""
    if config.seeds is None:
        return None
    explicit = list(config.seeds[: config.max_seeds])
    for seed_vertex in explicit:
        if seed_vertex not in graph:
            raise AlgorithmError(f"seed vertex {seed_vertex} is not a vertex of {graph!r}")
    return explicit


def _batched_runner(
    graph: Graph,
    params: CDRWParameters | None,
    config: RunConfig,
    delta_hint: float | None,
    *,
    session: "DetectionSession | None" = None,
) -> BackendOutcome:
    if config.batch_size < 1:
        raise AlgorithmError(f"batch_size must be >= 1, got {config.batch_size}")
    explicit = _explicit_seeds(graph, config)
    final_chunks: list[np.ndarray] = []

    def body(run_round: RoundRunner) -> list[CommunityResult]:
        def run_batch(seeds: list[int]) -> list[CommunityResult]:
            results, finals = run_round(
                seeds, config.batch_size, config.capture_distributions
            )
            if finals is not None:
                final_chunks.append(finals)
            return results

        if explicit is not None:
            return run_batch(explicit)
        return _pool_loop(
            graph, as_rng(config.seed), config.batch_size, config.max_seeds, run_batch
        )

    has_seeds = explicit is None or bool(explicit)
    results, timings, extras = _serve(graph, session, params, config, delta_hint, has_seeds, body)
    artifacts: dict[str, object] = {}
    finals = None
    if config.capture_distributions:
        finals = (
            np.hstack(final_chunks)
            if final_chunks
            else np.zeros((graph.num_vertices, 0), dtype=np.float64)
        )
        # One row per community.  ``tolist()`` emits the exact doubles and
        # json round-trips finite doubles exactly, so a (serialized) report
        # rebuilds the matrix bit for bit.
        artifacts["final_distributions"] = [
            finals[:, index].tolist() for index in range(finals.shape[1])
        ]
    # The raw (n, k) matrix rides along as the (unserialized) native result
    # so in-memory consumers read it back without re-parsing the list
    # artifact.
    return BackendOutcome(
        detection=DetectionResult(
            num_vertices=graph.num_vertices, communities=tuple(results)
        ),
        timings=timings,
        extras=extras,
        artifacts=artifacts,
        native=finals,
    )


def _parallel_runner(
    graph: Graph,
    params: CDRWParameters | None,
    config: RunConfig,
    delta_hint: float | None,
    *,
    session: "DetectionSession | None" = None,
) -> BackendOutcome:
    if config.num_communities is None:
        raise BackendError(
            "the 'parallel' backend needs the community-count estimate r: "
            "pass config=RunConfig(num_communities=...)"
        )
    if config.num_communities < 1:
        raise AlgorithmError(
            f"num_communities must be >= 1, got {config.num_communities}"
        )
    if not (0.0 < config.overlap_merge_threshold <= 1.0):
        raise AlgorithmError(
            f"overlap_merge_threshold must be in (0, 1], got "
            f"{config.overlap_merge_threshold}"
        )
    # Step 1 in the calling process, on either tier: the same draws.
    spread = _explicit_seeds(graph, config)
    if spread is None:
        # Capped after the draw, so a cap never changes which seeds come
        # first.
        spread = select_spread_seeds(
            graph,
            config.num_communities,
            min_distance=config.seed_min_distance,
            seed=as_rng(config.seed),
        )[: config.max_seeds]
    # Step 2: the detections as one round.
    (raw_results, distributions), timings, extras = _serve(
        graph,
        session,
        params,
        config,
        delta_hint,
        bool(spread),
        lambda run_round: run_round(spread, max(len(spread), 1), True),
    )
    resolved = _merge_and_resolve(
        raw_results, distributions, config.overlap_merge_threshold
    )
    return BackendOutcome(
        detection=DetectionResult(
            num_vertices=graph.num_vertices, communities=tuple(resolved)
        ),
        timings=timings,
        extras=extras,
    )


def _congest_runner(
    graph: Graph,
    params: CDRWParameters | None,
    config: RunConfig,
    delta_hint: float | None,
) -> BackendOutcome:
    from .congest.cdrw_congest import _detect_communities_congest_impl

    result = _detect_communities_congest_impl(
        graph,
        params,
        delta_hint,
        seed=config.seed,
        max_seeds=config.max_seeds,
        count_only=config.count_only,
        seeds=config.seeds,
    )
    phase_costs = {
        f"community_{index}": item.cost
        for index, item in enumerate(result.per_community)
    }
    extras = {
        "bfs_depths": [item.bfs_depth for item in result.per_community],
    }
    return BackendOutcome(
        detection=result.detection,
        phase_costs=phase_costs,
        extras=extras,
        native=result,
    )


def _kmachine_runner(
    graph: Graph,
    params: CDRWParameters | None,
    config: RunConfig,
    delta_hint: float | None,
) -> BackendOutcome:
    from .kmachine.cdrw_kmachine import _detect_communities_kmachine_impl

    result = _detect_communities_kmachine_impl(
        graph,
        config.num_machines,
        params,
        delta_hint,
        seed=config.seed,
        partition_seed=config.partition_seed,
        max_seeds=config.max_seeds,
        seeds=config.seeds,
    )
    phase_costs = {
        f"community_{index}": item.cost
        for index, item in enumerate(result.per_community)
    }
    extras = {"num_machines": result.num_machines}
    return BackendOutcome(
        detection=result.detection,
        phase_costs=phase_costs,
        extras=extras,
        native=result,
    )


def _partition_detection(
    partition: Partition, num_vertices: int, stop_reason: str
) -> DetectionResult:
    """Wrap a baseline's disjoint partition as a :class:`DetectionResult`.

    Baselines have no seed vertices or walk traces; each community is
    reported with its smallest member as the nominal seed so the unified
    result type (and every metric built on it) applies unchanged.
    """
    communities = tuple(
        CommunityResult(
            seed=min(members),
            community=members,
            walk_length=0,
            history=(),
            stop_reason=stop_reason,
            delta=0.0,
        )
        for members in partition.communities()
        if members
    )
    return DetectionResult(num_vertices=num_vertices, communities=communities)


def _make_baseline_runner(method: str) -> Runner:
    def run(
        graph: Graph,
        params: CDRWParameters | None,
        config: RunConfig,
        delta_hint: float | None,
    ) -> BackendOutcome:
        extras: dict[str, object] = {}
        if method == "label_propagation":
            native = label_propagation(graph, seed=config.seed)
            extras["converged"] = bool(native.converged)
        elif method == "averaging_dynamics":
            native = averaging_dynamics(graph, seed=config.seed)
        elif method == "clementi":
            native = clementi_two_communities(graph, seed=config.seed)
        elif method in ("spectral", "walktrap"):
            if config.num_communities is None:
                raise BackendError(
                    f"the 'baseline:{method}' backend needs the cluster count: "
                    f"pass config=RunConfig(num_communities=...)"
                )
            if method == "spectral":
                native = spectral_clustering(
                    graph, config.num_communities, seed=config.seed
                )
            else:
                native = walktrap_communities(graph, config.num_communities)
        else:  # pragma: no cover - the registration loop enumerates methods
            raise BackendError(f"unhandled baseline method {method!r}")
        detection = _partition_detection(
            native.partition, graph.num_vertices, stop_reason=f"baseline:{method}"
        )
        return BackendOutcome(detection=detection, extras=extras, native=native)

    return run


_BUILTIN_BACKENDS: tuple[tuple[str, str, Runner], ...] = (
    (
        "scalar",
        "sequential pool loop of Algorithm 1 (one walk per seed)",
        _scalar_runner,
    ),
    (
        "batched",
        "multi-seed batches on one shared SpMM walk (RNG-identical at batch_size=1)",
        _batched_runner,
    ),
    (
        "parallel",
        "r spread seeds on one shared walk with overlap resolution",
        _parallel_runner,
    ),
    (
        "congest",
        "message-level CONGEST simulation with round/message accounting",
        _congest_runner,
    ),
    (
        "kmachine",
        "k-machine simulation of the CONGEST algorithm (Conversion Theorem)",
        _kmachine_runner,
    ),
)

_BASELINE_METHODS: tuple[str, ...] = (
    "label_propagation",
    "averaging_dynamics",
    "clementi",
    "spectral",
    "walktrap",
)


_SESSION_BACKENDS: frozenset[str] = frozenset({"batched", "parallel"})


def _register_builtins() -> None:
    for name, description, runner in _BUILTIN_BACKENDS:
        register_backend(
            name,
            runner,
            description=description,
            supports_session=name in _SESSION_BACKENDS,
        )
    for method in _BASELINE_METHODS:
        register_backend(
            f"baseline:{method}",
            _make_baseline_runner(method),
            description=f"related-work baseline: {method.replace('_', ' ')}",
        )


_register_builtins()
