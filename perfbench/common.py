"""Shared pieces of the workloads: inputs, statistics, memory and host facts."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``metrics`` maps a metric name to ``(value, samples)``; the unit comes
    from the metric registry in ``run.py``.  ``problems`` lists every failed
    output or validity check -- any entry makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), int(samples))

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok


@dataclass(frozen=True)
class PPM:
    graph: Any
    partition: Any
    delta_hint: float


def planted_partition(n: int, blocks: int, seed: int) -> tuple[PPM, float]:
    """The ROADMAP workload graph, p = 2 ln^2 n / n and q = 0.6 / n.

    Returns the instance and the seconds ``planted_partition_graph`` took.
    """
    from repro.graphs import planted_partition_graph, ppm_expected_conductance

    p = min(1.0, 2.0 * math.log(n) ** 2 / n)
    q = 0.6 / n
    start = time.perf_counter()
    instance = planted_partition_graph(n, blocks, p, q, seed=seed)
    seconds = time.perf_counter() - start
    delta = ppm_expected_conductance(n, blocks, p, q)
    return PPM(instance.graph, instance.partition, delta), seconds


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per input stream, all derived from ``seed``."""
    return np.random.default_rng([seed, *stream.encode("ascii")])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]; 0 for no values."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def peak_rss_mb(child_kib: int | None = None) -> float:
    """Peak RSS of this process plus its largest child, in MiB.

    ``child_kib`` is the largest child's peak when the caller measured it;
    otherwise the largest reaped child's (the forked pool workers).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if child_kib is None:
        child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child_kib) / 1024.0  # ru_maxrss is in KiB on Linux


def same_community(a: Any, b: Any) -> bool:
    """Two per-seed results agree on everything a detection computes."""
    return (
        a.seed == b.seed
        and a.community == b.community
        and a.walk_length == b.walk_length
        and a.stop_reason == b.stop_reason
        and a.delta == b.delta
    )


def host_facts(seed: int) -> dict[str, Any]:
    """Facts a comparison needs: runs on different core counts never compare."""
    import numpy
    import scipy

    import repro

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro": repro.__version__,
        "seed": seed,
    }
