"""Throughput scaling of the parallel (multi-seed, shared-walk) detection path.

The ``"parallel"`` backend of :func:`repro.api.detect` runs all ``r`` seed
detections on one batched walk and resolves overlaps with the final walk
distributions.  This experiment quantifies the effect per seed count: for
each ``r`` it draws the same spread seeds the parallel path will draw, runs
the pre-port behaviour (one ``"scalar"`` detection per seed) as the
baseline, then times the batched parallel path, reporting seconds, speedup,
the number of surviving communities, whether the survivors are pairwise
disjoint (they always are — the conflict-resolution step guarantees it), and
accuracy against the planted partition.
"""

from __future__ import annotations

import math

from ..api import RunConfig, detect
from ..core.parallel import select_spread_seeds
from ..core.parameters import CDRWParameters
from ..exceptions import ExperimentError
from ..graphs.generators import planted_partition_graph
from ..graphs.properties import ppm_expected_conductance
from ..metrics.scores import average_f_score
from .runner import ExperimentTable

__all__ = ["parallel_detection_scaling"]


def parallel_detection_scaling(
    n: int = 1024,
    num_blocks: int = 4,
    seed_counts: tuple[int, ...] = (1, 2, 4),
    seed: int = 0,
    parameters: CDRWParameters | None = None,
    seed_min_distance: int = 2,
    workers: int | None = None,
    executor: str | None = None,
) -> ExperimentTable:
    """Measure parallel multi-seed detection throughput on one PPM instance.

    Parameters
    ----------
    n, num_blocks:
        The PPM instance (paper-style ``p = 2 log²n / n`` within blocks).
    seed_counts:
        The seed counts ``r`` to measure, one row per value; each row
        compares the scalar per-seed loop over the *same* spread seeds
        against the batched parallel path.
    workers:
        Worker count of the execution tier (``None`` → ``REPRO_WORKERS``
        env override, default serial); the detected communities are
        identical for every value, only the timings move.
    executor:
        Execution tier of the parallel rows: ``"thread"`` (default) or
        ``"process"`` (``None`` → ``REPRO_EXECUTOR`` env override); results
        are identical across tiers.
    """
    if not seed_counts:
        raise ExperimentError("seed_counts must not be empty")
    if any(r < 1 for r in seed_counts):
        raise ExperimentError(f"seed counts must be >= 1, got {seed_counts}")
    p = min(1.0, 2.0 * math.log(n) ** 2 / n)
    q = 1.0 / n
    instance = planted_partition_graph(n, num_blocks, p, q, seed=seed)
    graph, truth = instance.graph, instance.partition
    delta = ppm_expected_conductance(n, num_blocks, p, q)

    table = ExperimentTable(
        name="parallel_detection_scaling",
        description=(
            f"Parallel CDRW on PPM n={n}, blocks={num_blocks}: scalar per-seed "
            f"loop vs one shared batched walk with conflict resolution"
        ),
    )
    for count in seed_counts:
        count = int(count)
        # The parallel path re-derives the same spread seeds from the same
        # integer seed, so both rows walk from identical start vertices.
        spread = select_spread_seeds(
            graph, count, min_distance=seed_min_distance, seed=seed
        )
        scalar_report = detect(
            graph,
            backend="scalar",
            params=parameters,
            delta_hint=delta,
            config=RunConfig(seeds=tuple(spread)),
        )
        scalar_seconds = scalar_report.timings["total_seconds"]
        parallel_report = detect(
            graph,
            backend="parallel",
            params=parameters,
            delta_hint=delta,
            config=RunConfig(
                seed=seed,
                num_communities=count,
                seed_min_distance=seed_min_distance,
                workers=workers,
                executor=executor,
            ),
        )
        detection = parallel_report.detection
        parallel_seconds = parallel_report.timings["total_seconds"]
        communities = detection.detected_sets()
        disjoint = all(
            not (communities[i] & communities[j])
            for i in range(len(communities))
            for j in range(i + 1, len(communities))
        )
        table.add_row(
            {"r": count},
            {
                "scalar_seconds": scalar_seconds,
                "parallel_seconds": parallel_seconds,
                "speedup": (
                    scalar_seconds / parallel_seconds
                    if parallel_seconds > 0
                    else float("inf")
                ),
                "communities": float(detection.num_communities),
                "disjoint": float(disjoint),
                "f_score": average_f_score(detection, truth),
            },
        )
    return table
