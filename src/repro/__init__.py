"""repro — reproduction of *Efficient Distributed Community Detection in the
Stochastic Block Model* (Fathi, Molla, Pandurangan; ICDCS 2019).

The package implements the CDRW algorithm (community detection via random
walks and local mixing sets), the planted partition / stochastic block model
substrate it is evaluated on, simulators for the CONGEST and k-machine
distributed computing models, the baselines discussed by the paper's related
work, and the experiment harness that regenerates every figure of the
evaluation section.

Every executor — the scalar pool loop, the batched multi-seed path, the
parallel shared-walk variant, the CONGEST and k-machine simulations, and the
baselines — is a *backend* behind the unified :func:`detect` facade
(:mod:`repro.api`), which returns a structured, JSON-serializable
:class:`RunReport`.

Quickstart
----------
>>> from repro import RunConfig, detect, planted_partition_graph, average_f_score
>>> from repro.graphs import ppm_expected_conductance
>>> ppm = planted_partition_graph(n=512, num_blocks=2, p=0.08, q=0.002, seed=7)
>>> report = detect(
...     ppm.graph,
...     backend="batched",
...     delta_hint=ppm_expected_conductance(512, 2, 0.08, 0.002),
...     config=RunConfig(seed=7),
... )
>>> average_f_score(report.detection, ppm.partition) > 0.9
True
>>> sorted(report.timings) == ["total_seconds"]
True

Any registered backend slots into the same call — ``backend="congest"``
additionally returns the measured round/message costs in
``report.phase_costs`` — and ``repro detect --backend batched`` exposes the
same facade on the command line.

Resident sessions
-----------------
For a stream of queries against one graph, :class:`DetectionSession` keeps
the expensive per-call setup resident — the shared-memory graph broadcast
and worker pool on the process tier, the transition operator / mixing-set
search / resolved δ on the thread tier — while every answer stays
bit-identical to the one-shot facade:

>>> from repro import DetectionSession
>>> with DetectionSession(ppm.graph, config=RunConfig(seed=7)) as session:
...     first = session.detect(seeds=[0, 300])
...     second = session.detect(seeds=[100, 400])   # reuses cached setup
>>> second.metadata["session_calls"]
2
>>> one_shot = detect(ppm.graph, "batched", config=RunConfig(seed=7, seeds=(100, 400)))
>>> second.detection == one_shot.detection
True

``repro detect --session-repeat N`` exercises the same path from the
command line.

Serving detections
------------------
The session serves one call at a time by contract (concurrent calls raise
:class:`SessionBusyError`).  For many concurrent callers,
:class:`DetectionService` puts an admission queue and a dispatcher thread
in front of one session, coalescing whatever requests are pending into
``detect_batch`` waves — with per-request reports still bit-identical to
one-shot calls:

>>> from repro import DetectionService
>>> with DetectionService(ppm.graph, config=RunConfig(seed=7)) as service:
...     report = service.submit(300).result(timeout=60)   # from any thread
>>> report.detection == detect(
...     ppm.graph, "batched", config=RunConfig(seed=7, seeds=(300,))
... ).detection
True

``await service.detect(seed)`` is the same queue for asyncio callers, and
``repro serve --port N`` exposes it over JSON-lines TCP
(:mod:`repro.service_net`).
"""

from .exceptions import (
    AlgorithmError,
    BackendError,
    BandwidthExceededError,
    DeadlineExpiredError,
    ExperimentError,
    GeneratorError,
    GraphError,
    MachineError,
    MetricError,
    PartitionError,
    RandomWalkError,
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    SessionBusyError,
    SimulationError,
    WorkerCrashedError,
)
from .graphs import (
    Graph,
    Partition,
    PlantedPartition,
    gnp_random_graph,
    planted_partition_graph,
    stochastic_block_model_graph,
)
from .core import (
    CDRWParameters,
    CommunityResult,
    DetectionResult,
)
from .api import (
    Backend,
    RunConfig,
    RunReport,
    available_backends,
    detect,
    get_backend,
    register_backend,
    unregister_backend,
)
from .metrics import average_f_score, score_detection
from .service import DetectionService
from .session import DetectionSession

__version__ = "5.0.0"

__all__ = [
    "__version__",
    # exceptions
    "ReproError",
    "GraphError",
    "GeneratorError",
    "PartitionError",
    "RandomWalkError",
    "AlgorithmError",
    "SimulationError",
    "BandwidthExceededError",
    "MachineError",
    "MetricError",
    "ExperimentError",
    "BackendError",
    "SessionBusyError",
    "WorkerCrashedError",
    "ServiceError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "DeadlineExpiredError",
    # graphs
    "Graph",
    "Partition",
    "PlantedPartition",
    "gnp_random_graph",
    "planted_partition_graph",
    "stochastic_block_model_graph",
    # unified detection engine
    "Backend",
    "DetectionService",
    "DetectionSession",
    "RunConfig",
    "RunReport",
    "available_backends",
    "detect",
    "get_backend",
    "register_backend",
    "unregister_backend",
    # core algorithm
    "CDRWParameters",
    "CommunityResult",
    "DetectionResult",
    # metrics
    "average_f_score",
    "score_detection",
]
