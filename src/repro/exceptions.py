"""Exception hierarchy for the ``repro`` library.

Every error deliberately raised by the library derives from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class GraphError(ReproError):
    """Raised for malformed graphs or invalid graph operations."""


class GeneratorError(ReproError):
    """Raised when random graph generator parameters are invalid."""


class PartitionError(ReproError):
    """Raised for inconsistent vertex partitions."""


class RandomWalkError(ReproError):
    """Raised for invalid random walk configurations or states."""


class MixingError(RandomWalkError):
    """Raised when a mixing-time or local-mixing computation cannot proceed."""


class AlgorithmError(ReproError):
    """Raised when a community detection algorithm is misconfigured."""


class ConvergenceError(AlgorithmError):
    """Raised when an iterative algorithm fails to converge within its budget."""


class SimulationError(ReproError):
    """Raised by the distributed-model simulators (CONGEST, k-machine)."""


class BandwidthExceededError(SimulationError):
    """Raised when a node attempts to exceed the per-edge bandwidth in a round."""


class MachineError(SimulationError):
    """Raised for invalid k-machine model configurations."""


class MetricError(ReproError):
    """Raised when an accuracy metric receives inconsistent inputs."""


class BackendError(ReproError):
    """Raised by the unified detection API (:mod:`repro.api`): unknown or
    duplicate backend names, and invalid run configurations."""


class SessionBusyError(BackendError):
    """Raised when a :class:`~repro.session.DetectionSession` receives a
    second call while one is already in flight.  The session is
    one-call-at-a-time by contract; put a
    :class:`~repro.service.DetectionService` in front for concurrent
    callers."""


class WorkerCrashedError(BackendError):
    """Raised when a process-tier worker dies mid-call (killed by a signal,
    out of memory, ``os._exit``).  The call's results are lost; the
    session drops the broken executor but keeps the graph broadcast, so its
    next call runs on a fresh worker pool."""


class ServiceError(ReproError):
    """Raised by the concurrent detection service (:mod:`repro.service`)
    and its wire protocol (:mod:`repro.service_net`)."""


class ServiceOverloadedError(ServiceError):
    """Raised when the service's bounded admission queue is full and a new
    request is rejected (backpressure)."""


class ServiceClosedError(ServiceError):
    """Raised when a request reaches a service that is closed or closing."""


class DeadlineExpiredError(ServiceError):
    """Raised when a request's deadline expires in the admission queue
    before its wave is formed."""


class ExperimentError(ReproError):
    """Raised when an experiment configuration is invalid."""
