"""Throughput benchmark: vectorized graph kernel vs the seed scalar path.

Measures, on a 1M-edge random graph:

* **construction** — ``Graph.from_edge_array`` (COO→CSR scatter) against the
  seed's one-tuple-at-a-time set loop (:func:`repro.graphs.reference.scalar_csr_arrays`);
* **subset kernels** — vectorized ``cut_size`` / ``induced_edge_count`` /
  ``induced_subgraph`` against the per-vertex reference loops;
* **64-seed walk advance** — one :class:`BatchedWalkDistribution` (single
  CSR SpMM per step) against the seed scalar path, which pays one operator
  construction (``transition_matrix(G).T.tocsr()``, exactly as the seed
  ``WalkDistribution.__init__`` did) plus one mat-vec *per seed* — that is
  what 64 sequential ``"scalar"`` detections cost per walk step;
* **steady-state step** — batched vs scalar stepping with operators already
  built, reported for transparency (the win here is bounded by memory
  bandwidth, not by call overhead);
* **batched mixing-set search** — one
  :class:`BatchedMixingSetSearch.largest_mixing_sets` call over ``B``
  walk columns against ``B`` one-lane calls of the same kernel (what the
  scalar backend pays per step for ``B`` seeds; the ``search{B}_scalar_s``
  rows), at ``B ∈ {1, 8, 64}`` on a 20k-edge random graph;
* **walk search** — the searches of a whole walk (lengths 1–12) on the
  ROADMAP's PPM workload at n = 16k and 65k, one lane per call and 32 lanes
  per call; the share of visited sizes whose rejection the sort-once
  certificate proved (``search_certified_share``); and one lane on a
  heavy-tailed graph with many degree classes (and few degree bands);
* **parallel detection** — the ``"parallel"`` backend (one shared
  batched walk + conflict resolution) against the pre-port scalar per-seed
  loop over the same spread seeds, at ``r ∈ {1, 8, 64}`` on an 8-block PPM;
* **process executor** — a 32-seed batched detection through the facade on
  the serial in-process path against the shared-memory process tier
  (:mod:`repro.execution_process`) at ``workers ∈ {1, 2, 4}`` processes;
  detections are identical on every row, only the wall clock moves;
* **storage tiers** — the 32-seed detection once more on the same graph
  read back from a memmapped binary CSR file (``memmap_detect_s``, best of
  3), gated on producing the exact in-RAM detection;
* **resident session** — a stream of small detection requests on the same
  graph answered once with a fresh ``detect()`` per request (each paying
  the broadcast + pool fork + operator build) and once through a single
  :class:`repro.DetectionSession`, which broadcasts exactly once and keeps
  the pool and cached operators resident; answers are bit-identical;
* **one-seed calls** — 16 single-seed calls on one resident session per
  tier (``session_one_seed_process_s`` / ``session_one_seed_thread_s``);
  the process tier runs such a round on the calling thread, so the two
  rows should match, and the replies must be identical.  The same calls on
  the thread tier without per-step traces (``session_one_seed_nohistory_s``)
  are the service's shape, where the length-1 search runs only for the
  walks that read it.  Each row is the median of
  ``ONE_SEED_ROUNDS`` rounds, and each round runs the three sequences back
  to back, so a drift of the host's speed hits all three rows alike;
* **coalescing service** — a stream of single-seed requests answered once
  by a serialized session loop (one full batched pass per request) and
  once through :class:`repro.DetectionService` at ``clients ∈ {1, 4, 16}``
  concurrent submitters, whose dispatcher coalesces pending requests into
  ``detect_batch`` waves where width is nearly free; every reply must be
  bit-identical to its serialized counterpart, and at 16 clients the
  stream must collapse into fewer waves than requests.

Run directly (``python benchmarks/bench_graph_kernel.py``) for the table, or
through pytest (``pytest benchmarks/bench_graph_kernel.py``); both enforce
the one acceptance list :data:`GUARDS`: construction and the 64-seed walk
advance at least 10× faster than the seed scalar path, the subset kernels,
the 64-column batched search and 64-seed parallel detection faster than
their scalar loops, and identical detections on the process tier, the
memmapped file, the resident session (one broadcast), the one-seed calls
of both tiers and the service (fewer waves than requests).  On hosts with
at least four cores the process tier must beat the serial facade by
≥ 1.5×, the resident session the per-call setup loop by ≥ 2×, and the
service at 16 concurrent clients the serialized session loop by ≥ 2×.  Smaller hosts skip those scaling guards, and the identity
guards still run.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import os
import platform
import statistics
import tempfile
import threading
import time
from typing import Callable, NamedTuple

import numpy as np
import pytest

from repro.api import RunConfig, RunReport, detect
from repro.core import BatchedMixingSetSearch
from repro.core.parallel import select_spread_seeds
from repro.graphs import (
    Graph,
    planted_partition_graph,
    ppm_expected_conductance,
    read_csr_graph,
    write_csr_graph,
)
from repro.graphs.reference import (
    scalar_csr_arrays,
    scalar_cut_size,
    scalar_induced_edge_count,
    scalar_induced_subgraph_edges,
)
from repro.randomwalk import BatchedWalkDistribution, transition_matrix
from repro.service import DetectionService
from repro.session import DetectionSession
from repro.utils import log_size

NUM_VERTICES = 200_000
NUM_EDGES = 1_000_000
NUM_SEEDS = 64
REQUIRED_SPEEDUP = 10.0

# The mixing-set search and parallel detection scan the full candidate-size
# schedule per walk step, so they are measured on smaller instances sized
# like the paper's Figure 2–4 graphs, n = 128 … 8192 (at n ≳ 50k the search
# is memory-bound and batched ≈ scalar on one core; the batching win is
# call-overhead and shared-target amortization, which dominates at those
# sizes).
SEARCH_VERTICES = 4_096
SEARCH_EDGES = 20_000
# The sort-once certificate's rows: the search over a whole walk (lengths
# 1 … PPM_SEARCH_STEPS) on the ROADMAP's PPM workload (r = 4,
# p = 2 ln²n / n, q = 0.6 / n), one lane and PPM_SEARCH_WIDTH lanes per
# call, at the larger sizes where the per-size O(n) passes used to dominate.
PPM_SEARCH_VERTICES = (16_384, 65_536)
PPM_SEARCH_STEPS = 12
PPM_SEARCH_WIDTH = 32
# A heavy-tailed graph has many degree classes (217) but few degree bands
# (48), so its row times the certificate where the class count is large.
# (A dense G(n, p) has as many classes, but its walks mix in one step and
# accept at the top size, which times no certificate.)
HEAVY_SEARCH_VERTICES = 4_096
HEAVY_SEARCH_EXPONENT = 2.5
HEAVY_SEARCH_AVERAGE_DEGREE = 40
PARALLEL_VERTICES = 2_048
PARALLEL_BLOCKS = 8
BATCH_WIDTHS = (1, 8, 64)

# The process tier pays pool start-up and result pickling, so it is measured
# on a full multi-seed detection (where the per-seed work dwarfs both) and
# its speedup guard applies on hosts with >= 4 cores.
PROCESS_VERTICES = 4_096
PROCESS_BLOCKS = 8
PROCESS_SEEDS = 32
PROCESS_WORKER_COUNTS = (1, 2, 4)
PROCESS_REQUIRED_SPEEDUP = 1.5
PROCESS_REQUIRED_CORES = 4

# The resident session amortises the per-call setup of the process tier
# (graph broadcast, pool fork) across a stream of small requests, so it is
# measured as repeated few-seed detections on the process-tier PPM; the
# speedup guard applies on hosts with >= 4 cores, the identity and
# single-broadcast checks everywhere.
SESSION_REPEATS = 6
SESSION_SEEDS_PER_CALL = 4
SESSION_WORKERS = 4
SESSION_REQUIRED_SPEEDUP = 2.0

# A service wave is mostly one seed.  The process tier runs a one-seed round
# on the calling thread, so a stream of one-seed calls on one resident
# session should cost about the same on both tiers; no speed threshold,
# only the identity of the replies is gated.
ONE_SEED_CALLS = 16
ONE_SEED_WORKERS = 2
ONE_SEED_ROUNDS = 7

# The coalescing service amortises whole batched passes: N pending
# single-seed requests become one detect_batch wave instead of N sequential
# single-seed passes.  Measured as a fixed stream of distinct single-seed
# requests on the process-tier PPM, submitted by {1, 4, 16} concurrent
# client threads; the >= 2x guard (16 clients vs the serialized session
# loop) applies on hosts with >= 4 cores, the identity and coalescing
# checks everywhere.
SERVICE_REQUESTS = 16
SERVICE_CONCURRENCY = (1, 4, 16)
SERVICE_REQUIRED_SPEEDUP = 2.0


def _best_of(function, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _random_edge_array(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, NUM_VERTICES, size=(NUM_EDGES, 2), dtype=np.int64)
    return edges[edges[:, 0] != edges[:, 1]]


@functools.lru_cache(maxsize=1)
def run_benchmark() -> dict[str, float]:
    """Run every measurement once and return ``{metric: value}`` timings."""
    results: dict[str, float] = {}
    edges = _random_edge_array()

    # -- construction ---------------------------------------------------
    results["construct_vectorized_s"] = _best_of(
        lambda: Graph.from_edge_array(NUM_VERTICES, edges)
    )
    results["construct_scalar_s"] = _best_of(
        lambda: scalar_csr_arrays(NUM_VERTICES, map(tuple, edges.tolist())), repeats=1
    )
    results["construct_speedup"] = (
        results["construct_scalar_s"] / results["construct_vectorized_s"]
    )
    graph = Graph.from_edge_array(NUM_VERTICES, edges)

    # -- subset kernels -------------------------------------------------
    subset = np.random.default_rng(1).permutation(NUM_VERTICES)[: NUM_VERTICES // 2]
    subset_list = subset.tolist()
    results["cut_vectorized_s"] = _best_of(lambda: graph.cut_size(subset))
    results["cut_scalar_s"] = _best_of(lambda: scalar_cut_size(graph, subset_list), repeats=1)
    results["cut_speedup"] = results["cut_scalar_s"] / results["cut_vectorized_s"]
    results["induced_vectorized_s"] = _best_of(lambda: graph.induced_subgraph(subset))
    results["induced_scalar_s"] = _best_of(
        lambda: scalar_induced_subgraph_edges(graph, subset_list), repeats=1
    )
    results["induced_speedup"] = (
        results["induced_scalar_s"] / results["induced_vectorized_s"]
    )
    results["count_vectorized_s"] = _best_of(lambda: graph.induced_edge_count(subset))
    results["count_scalar_s"] = _best_of(
        lambda: scalar_induced_edge_count(graph, subset_list), repeats=1
    )
    results["count_speedup"] = results["count_scalar_s"] / results["count_vectorized_s"]

    # -- 64-seed walk advance (operator build + one step per seed) ------
    seeds = np.random.default_rng(2).integers(0, NUM_VERTICES, size=NUM_SEEDS).tolist()

    def seed_scalar_walk_advance():
        # The seed code built the reverse operator per WalkDistribution via
        # transition_matrix(G).T — replicated here verbatim as the baseline.
        for s in seeds:
            operator = transition_matrix(graph).T.tocsr()
            distribution = np.zeros(NUM_VERTICES)
            distribution[s] = 1.0
            operator @ distribution

    def batched_walk_advance():
        BatchedWalkDistribution(graph, seeds).step()

    results["walk_advance_scalar_s"] = _best_of(seed_scalar_walk_advance, repeats=1)
    results["walk_advance_batched_s"] = _best_of(batched_walk_advance)
    results["walk_advance_speedup"] = (
        results["walk_advance_scalar_s"] / results["walk_advance_batched_s"]
    )

    # -- steady-state stepping (operators pre-built) --------------------
    operator = transition_matrix(graph).T.tocsr()
    matrix = np.zeros((NUM_VERTICES, NUM_SEEDS))
    matrix[seeds, np.arange(NUM_SEEDS)] = 1.0
    columns = [matrix[:, j].copy() for j in range(NUM_SEEDS)]
    results["step_scalar_s"] = _best_of(lambda: [operator @ c for c in columns])
    results["step_batched_s"] = _best_of(lambda: operator @ matrix)
    results["step_speedup"] = results["step_scalar_s"] / results["step_batched_s"]

    # -- batched mixing-set search (per walk step, B ∈ {1, 8, 64}) ------
    search_edges = np.random.default_rng(3).integers(
        0, SEARCH_VERTICES, size=(SEARCH_EDGES, 2), dtype=np.int64
    )
    search_graph = Graph.from_edge_array(
        SEARCH_VERTICES, search_edges[search_edges[:, 0] != search_edges[:, 1]]
    )
    search_seeds = (
        np.random.default_rng(4).integers(0, SEARCH_VERTICES, size=max(BATCH_WIDTHS)).tolist()
    )
    search_walk = BatchedWalkDistribution(search_graph, search_seeds)
    search_walk.step(5)
    distributions = np.array(search_walk.probabilities())
    initial_size = log_size(SEARCH_VERTICES)
    batched_search = BatchedMixingSetSearch(search_graph, initial_size=initial_size)
    for width in BATCH_WIDTHS:
        subset = np.ascontiguousarray(distributions[:, :width])
        per_column = [subset[:, j : j + 1] for j in range(width)]
        # The "scalar" rows: one one-lane call per column, as the scalar
        # backend searches one seed at a time.
        results[f"search{width}_scalar_s"] = _best_of(
            lambda: [batched_search.largest_mixing_sets(c, 5)[0] for c in per_column],
            repeats=1,
        )
        results[f"search{width}_batched_s"] = _best_of(
            lambda: batched_search.largest_mixing_sets(subset, 5), repeats=1
        )
        results[f"search{width}_speedup"] = (
            results[f"search{width}_scalar_s"] / results[f"search{width}_batched_s"]
        )

    results.update(walk_search_rows())

    # -- parallel detection (shared batched walk, r ∈ {1, 8, 64}) -------
    n = PARALLEL_VERTICES
    p = min(1.0, 2.0 * np.log(n) ** 2 / n)
    q = 1.0 / n
    ppm = planted_partition_graph(n, PARALLEL_BLOCKS, p, q, seed=5)
    delta = ppm_expected_conductance(n, PARALLEL_BLOCKS, p, q)
    for width in BATCH_WIDTHS:
        # Both rows run through the unified facade (repro.api.detect): the
        # scalar per-seed loop as the "scalar" backend over the explicit
        # spread seeds, the shared-walk path as the "parallel" backend.
        spread = select_spread_seeds(ppm.graph, width, seed=6)
        results[f"parallel{width}_scalar_s"] = _best_of(
            lambda: detect(
                ppm.graph,
                backend="scalar",
                delta_hint=delta,
                config=RunConfig(seeds=tuple(spread)),
            ),
            repeats=1,
        )
        results[f"parallel{width}_batched_s"] = _best_of(
            lambda: detect(
                ppm.graph,
                backend="parallel",
                delta_hint=delta,
                config=RunConfig(seed=6, num_communities=width),
            ),
            repeats=1,
        )
        results[f"parallel{width}_speedup"] = (
            results[f"parallel{width}_scalar_s"] / results[f"parallel{width}_batched_s"]
        )

    # -- process executor (shared-memory worker pool) -------------------
    n = PROCESS_VERTICES
    p = min(1.0, 2.0 * np.log(n) ** 2 / n)
    q = 1.0 / n
    process_ppm = planted_partition_graph(n, PROCESS_BLOCKS, p, q, seed=7)
    process_delta = ppm_expected_conductance(n, PROCESS_BLOCKS, p, q)
    process_seeds = tuple(
        int(v)
        for v in np.random.default_rng(8).choice(n, size=PROCESS_SEEDS, replace=False)
    )

    def detect_with(executor: str, workers: int):
        return detect(
            process_ppm.graph,
            backend="batched",
            delta_hint=process_delta,
            config=RunConfig(seeds=process_seeds, workers=workers, executor=executor),
        )

    start = time.perf_counter()
    baseline_report = detect_with("thread", 1)
    results["process_serial_s"] = time.perf_counter() - start
    identical = 1.0
    for workers in PROCESS_WORKER_COUNTS:
        start = time.perf_counter()
        report = detect_with("process", workers)
        results[f"process_workers{workers}_s"] = time.perf_counter() - start
        if report.detection != baseline_report.detection:
            identical = 0.0
    results["process_identical"] = identical
    results["process_speedup"] = results["process_serial_s"] / min(
        results[f"process_workers{workers}_s"]
        for workers in PROCESS_WORKER_COUNTS
        if workers > 1
    )

    # -- storage tiers: the same detection on a memmapped CSR file ------
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        csr_path = os.path.join(tmp, "bench.csr")
        write_csr_graph(process_ppm.graph, csr_path)
        mapped_graph = read_csr_graph(csr_path)
        mapped_reports: list[RunReport] = []
        results["memmap_detect_s"] = _best_of(
            lambda: mapped_reports.append(
                detect(
                    mapped_graph,
                    backend="batched",
                    delta_hint=process_delta,
                    config=RunConfig(seeds=process_seeds),
                )
            )
        )
        mapped_report = mapped_reports[-1]
    results["memmap_identical"] = float(
        mapped_report.detection == baseline_report.detection
    )

    # -- resident session (amortised broadcast / pool / operator setup) --
    session_rng = np.random.default_rng(9)
    session_requests = [
        tuple(
            int(v)
            for v in session_rng.choice(n, size=SESSION_SEEDS_PER_CALL, replace=False)
        )
        for _ in range(SESSION_REPEATS)
    ]
    session_config = RunConfig(
        batch_size=SESSION_SEEDS_PER_CALL,
        workers=SESSION_WORKERS,
        executor="process",
    )

    start = time.perf_counter()
    one_shot_reports = [
        detect(
            process_ppm.graph,
            backend="batched",
            delta_hint=process_delta,
            config=session_config.with_overrides(seeds=request),
        )
        for request in session_requests
    ]
    results["session_oneshot_s"] = time.perf_counter() - start

    start = time.perf_counter()
    with DetectionSession(
        process_ppm.graph, config=session_config, delta_hint=process_delta
    ) as session:
        resident_reports = [
            session.detect(seeds=request) for request in session_requests
        ]
        results["session_broadcasts"] = float(session.broadcasts)
    results["session_resident_s"] = time.perf_counter() - start
    results["session_identical"] = float(
        all(
            fresh.detection == cached.detection
            for fresh, cached in zip(one_shot_reports, resident_reports)
        )
    )
    results["session_speedup"] = (
        results["session_oneshot_s"] / results["session_resident_s"]
    )

    # -- one-seed calls on a resident session, per tier -----------------
    # The nohistory row is the service's shape: thread-tier calls without
    # the per-step traces.
    one_seed_stream = process_seeds[:ONE_SEED_CALLS]
    one_seed_configs = {
        "process": RunConfig(workers=ONE_SEED_WORKERS, executor="process"),
        "thread": RunConfig(executor="thread"),
        "nohistory": RunConfig(executor="thread", capture_history=False),
    }
    one_seed_replies: dict[str, list[RunReport]] = {}
    one_seed_times: dict[str, list[float]] = {row: [] for row in one_seed_configs}
    with contextlib.ExitStack() as stack:
        one_seed_sessions = {
            row: stack.enter_context(
                DetectionSession(process_ppm.graph, config=config, delta_hint=process_delta)
            )
            for row, config in one_seed_configs.items()
        }
        for _ in range(ONE_SEED_ROUNDS):
            for row, one_seed_session in one_seed_sessions.items():
                start = time.perf_counter()
                one_seed_replies[row] = [
                    one_seed_session.detect(seeds=(vertex,)) for vertex in one_seed_stream
                ]
                one_seed_times[row].append(time.perf_counter() - start)
    for row, times in one_seed_times.items():
        results[f"session_one_seed_{row}_s"] = statistics.median(times)
    results["session_one_seed_identical"] = float(
        all(
            shipped.detection == local.detection
            for shipped, local in zip(
                one_seed_replies["process"], one_seed_replies["thread"]
            )
        )
    )

    # -- coalescing service (admission queue in front of one session) ----
    service_rng = np.random.default_rng(10)
    service_stream = tuple(
        int(v)
        for v in service_rng.choice(n, size=SERVICE_REQUESTS, replace=False)
    )
    service_config = RunConfig(executor="thread")

    start = time.perf_counter()
    with DetectionSession(
        process_ppm.graph, config=service_config, delta_hint=process_delta
    ) as serialized_session:
        serialized_replies = {
            vertex: serialized_session.detect(seeds=(vertex,))
            for vertex in service_stream
        }
    results["service_serialized_s"] = time.perf_counter() - start

    service_identical = 1.0
    for clients in SERVICE_CONCURRENCY:
        shards = [service_stream[index::clients] for index in range(clients)]
        replies: dict[int, RunReport] = {}
        replies_lock = threading.Lock()
        client_barrier = threading.Barrier(clients)

        def serve_shard(shard: tuple[int, ...]) -> None:
            client_barrier.wait()
            futures = [(vertex, service.submit(vertex)) for vertex in shard]
            for vertex, future in futures:
                report = future.result(timeout=600)
                with replies_lock:
                    replies[vertex] = report

        start = time.perf_counter()
        with DetectionService(
            process_ppm.graph, config=service_config, delta_hint=process_delta
        ) as service:
            client_threads = [
                threading.Thread(target=serve_shard, args=(shard,))
                for shard in shards
            ]
            for thread in client_threads:
                thread.start()
            for thread in client_threads:
                thread.join()
            service_metrics = service.metrics()
        results[f"service_clients{clients}_s"] = time.perf_counter() - start
        results[f"service_clients{clients}_waves"] = float(service_metrics["waves"])
        if any(
            replies[vertex].detection != serialized_replies[vertex].detection
            for vertex in service_stream
        ):
            service_identical = 0.0
    results["service_identical"] = service_identical
    results["service_speedup"] = (
        results["service_serialized_s"]
        / results[f"service_clients{max(SERVICE_CONCURRENCY)}_s"]
    )
    return results


def walk_search_rows() -> dict[str, float]:
    """The searches of whole walks, and the certified share.

    ``search1_ppm{n}_s`` times one one-lane call per walk length and seed
    (four seeds, per seed), ``search{W}_ppm{n}_s`` one ``W``-lane call per
    walk length, each the best of three; only the search calls are timed.
    ``search1_heavy_s`` is the one-lane row on the heavy-tailed graph.
    ``search_certified_share`` is the share of the (lane, size < n) pairs
    the descending scans of the PPM one-lane rows visit whose rejection
    the certificate proved without forming a deviation vector.
    """
    rows: dict[str, float] = {}
    visited = uncertified = 0
    graphs = {
        f"ppm{n}": planted_partition_graph(
            n, 4, min(1.0, 2.0 * np.log(n) ** 2 / n), 0.6 / n, seed=11
        ).graph
        for n in PPM_SEARCH_VERTICES
    }
    graphs["heavy"] = _heavy_tailed_graph(
        HEAVY_SEARCH_VERTICES, HEAVY_SEARCH_EXPONENT, HEAVY_SEARCH_AVERAGE_DEGREE, seed=13
    )
    for name, graph in graphs.items():
        n = graph.num_vertices
        seeds = np.random.default_rng(12).choice(n, size=PPM_SEARCH_WIDTH, replace=False)
        search = BatchedMixingSetSearch(graph, initial_size=log_size(n))
        descending = search.candidate_sizes[::-1]
        walk = BatchedWalkDistribution(graph, seeds.tolist())
        single = batched = 0.0
        for length in range(1, PPM_SEARCH_STEPS + 1):
            walk.step()
            matrix = np.array(walk.probabilities())
            columns = [matrix[:, j : j + 1] for j in range(4)]
            single += _best_of(
                lambda: [search.largest_mixing_sets(column, length) for column in columns]
            )
            if name == "heavy":
                continue
            batched += _best_of(lambda: search.largest_mixing_sets(matrix, length))
            for column in columns:
                result = search.largest_mixing_sets(column, length)[0]
                reached = descending.index(result.size) if result.size else len(descending)
                visited += reached - 1  # the top size n is never certified
                uncertified += _uncertified_sizes(search, column[:, 0], reached)
        rows[f"search1_{name}_s"] = single / 4
        if name != "heavy":
            rows[f"search{PPM_SEARCH_WIDTH}_{name}_s"] = batched
    rows["search_certified_share"] = 1.0 - uncertified / max(visited, 1)
    return rows


def _heavy_tailed_graph(n: int, exponent: float, average: int, seed: int) -> Graph:
    """A Chung–Lu graph: endpoints drawn with weight ``i^(−1/(exponent−1))``."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, n + 1) ** (-1.0 / (exponent - 1.0))
    ends = rng.choice(n, size=(n * average // 2, 2), p=weights / weights.sum())
    ends = np.unique(np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1), axis=0)
    return Graph.from_edge_array(n, ends)


def _uncertified_sizes(search: BatchedMixingSetSearch, lane: np.ndarray, reached: int) -> int:
    """How many of the first ``reached`` scan positions below ``n`` the certificate left open."""
    certificate = search._certificate
    order = certificate.order(lane)
    verdicts = [False] + [
        verdict for run in certificate.runs for verdict in certificate.verdicts(order, run)
    ]
    return verdicts[1:reached].count(False)


def print_table(results: dict[str, float]) -> None:
    rows = [
        ("construction (1M edges)", "construct_scalar_s", "construct_vectorized_s", "construct_speedup"),
        ("cut_size (100k subset)", "cut_scalar_s", "cut_vectorized_s", "cut_speedup"),
        ("induced_edge_count", "count_scalar_s", "count_vectorized_s", "count_speedup"),
        ("induced_subgraph", "induced_scalar_s", "induced_vectorized_s", "induced_speedup"),
        ("64-seed walk advance", "walk_advance_scalar_s", "walk_advance_batched_s", "walk_advance_speedup"),
        ("64-seed steady step", "step_scalar_s", "step_batched_s", "step_speedup"),
    ]
    for width in BATCH_WIDTHS:
        rows.append(
            (
                f"mixing search B={width}",
                f"search{width}_scalar_s",
                f"search{width}_batched_s",
                f"search{width}_speedup",
            )
        )
    for width in BATCH_WIDTHS:
        rows.append(
            (
                f"parallel detect r={width}",
                f"parallel{width}_scalar_s",
                f"parallel{width}_batched_s",
                f"parallel{width}_speedup",
            )
        )
    print(f"{'kernel':26s} {'scalar [s]':>11s} {'vectorized [s]':>15s} {'speedup':>9s}")
    for label, scalar_key, vector_key, speedup_key in rows:
        print(
            f"{label:26s} {results[scalar_key]:11.4f} "
            f"{results[vector_key]:15.4f} {results[speedup_key]:8.1f}x"
        )
    for n in PPM_SEARCH_VERTICES:
        print(
            f"PPM search n={n}: one lane {results[f'search1_ppm{n}_s']:.4f}s, "
            f"{PPM_SEARCH_WIDTH} lanes {results[f'search{PPM_SEARCH_WIDTH}_ppm{n}_s']:.4f}s "
            f"per {PPM_SEARCH_STEPS}-step walk"
        )
    print(
        f"heavy-tailed n={HEAVY_SEARCH_VERTICES} search: "
        f"one lane {results['search1_heavy_s']:.4f}s per {PPM_SEARCH_STEPS}-step walk"
    )
    print(f"certified share of visited sizes: {results['search_certified_share']:.4f}")
    print()
    print_workers_table(results)


def print_workers_table(results: dict[str, float]) -> None:
    """Print the workers ∈ {1, 2, 4} scaling table of the process tier."""
    header = "".join(f"{f'workers={w} [s]':>15s}" for w in PROCESS_WORKER_COUNTS)
    print(f"{'tier':26s}{header} {'best speedup':>13s}")
    timings = "".join(
        f"{results[f'process_workers{w}_s']:15.4f}" for w in PROCESS_WORKER_COUNTS
    )
    print(
        f"{f'process detect {PROCESS_SEEDS} seeds':26s}{timings} "
        f"{results['process_speedup']:12.1f}x"
    )
    print(
        f"{'(process serial baseline)':26s}{results['process_serial_s']:15.4f} "
        f"identical={results['process_identical']:.0f}"
    )
    print(
        f"memmapped CSR detect: {results['memmap_detect_s']:.4f}s "
        f"(identical={results['memmap_identical']:.0f})"
    )
    print(
        f"resident session ({SESSION_REPEATS} requests x {SESSION_SEEDS_PER_CALL} "
        f"seeds, workers={SESSION_WORKERS}): "
        f"one-shot {results['session_oneshot_s']:.4f}s, "
        f"session {results['session_resident_s']:.4f}s "
        f"({results['session_speedup']:.1f}x, "
        f"broadcasts={results['session_broadcasts']:.0f}, "
        f"identical={results['session_identical']:.0f})"
    )
    print(
        f"{ONE_SEED_CALLS} one-seed calls on a resident session "
        f"(process workers={ONE_SEED_WORKERS}): "
        f"process {results['session_one_seed_process_s']:.4f}s, "
        f"thread {results['session_one_seed_thread_s']:.4f}s "
        f"(identical={results['session_one_seed_identical']:.0f}), "
        f"thread without history {results['session_one_seed_nohistory_s']:.4f}s"
    )
    service_levels = ", ".join(
        f"x{clients} {results[f'service_clients{clients}_s']:.4f}s "
        f"({results[f'service_clients{clients}_waves']:.0f} waves)"
        for clients in SERVICE_CONCURRENCY
    )
    print(
        f"coalescing service ({SERVICE_REQUESTS} single-seed requests): "
        f"serialized {results['service_serialized_s']:.4f}s, {service_levels} "
        f"({results['service_speedup']:.1f}x at x{max(SERVICE_CONCURRENCY)}, "
        f"identical={results['service_identical']:.0f})"
    )
    cores = os.cpu_count() or 1
    print(f"(host has {cores} core{'s' if cores != 1 else ''}; "
          f"process results are identical to workers=1 at any count)")


class Guard(NamedTuple):
    """One acceptance check on the :func:`run_benchmark` results."""

    name: str
    check: Callable[[dict[str, float]], bool]
    min_cores: int = 1


#: Every acceptance check, enforced by :func:`main` and by ``test_guard``.
#: A guard whose ``min_cores`` exceeds the host's core count is skipped.
GUARDS: tuple[Guard, ...] = (
    Guard("construction_speedup", lambda r: r["construct_speedup"] >= REQUIRED_SPEEDUP),
    Guard("walk_advance_speedup", lambda r: r["walk_advance_speedup"] >= REQUIRED_SPEEDUP),
    Guard("cut_speedup", lambda r: r["cut_speedup"] > 1.0),
    Guard("count_speedup", lambda r: r["count_speedup"] > 1.0),
    Guard("induced_speedup", lambda r: r["induced_speedup"] > 1.0),
    Guard("search64_speedup", lambda r: r["search64_speedup"] > 1.0),
    Guard("parallel64_speedup", lambda r: r["parallel64_speedup"] > 1.0),
    Guard("process_identical", lambda r: r["process_identical"] == 1.0),
    Guard(
        "process_speedup",
        lambda r: r["process_speedup"] >= PROCESS_REQUIRED_SPEEDUP,
        min_cores=PROCESS_REQUIRED_CORES,
    ),
    Guard("memmap_identical", lambda r: r["memmap_identical"] == 1.0),
    Guard(
        "session_identical_one_broadcast",
        lambda r: r["session_identical"] == 1.0 and r["session_broadcasts"] == 1.0,
    ),
    Guard(
        "session_speedup",
        lambda r: r["session_speedup"] >= SESSION_REQUIRED_SPEEDUP,
        min_cores=PROCESS_REQUIRED_CORES,
    ),
    Guard(
        "session_one_seed_identical", lambda r: r["session_one_seed_identical"] == 1.0
    ),
    Guard(
        "service_identical_coalesced",
        lambda r: r["service_identical"] == 1.0
        and r[f"service_clients{max(SERVICE_CONCURRENCY)}_waves"] < SERVICE_REQUESTS,
    ),
    Guard(
        "service_speedup",
        lambda r: r["service_speedup"] >= SERVICE_REQUIRED_SPEEDUP,
        min_cores=PROCESS_REQUIRED_CORES,
    ),
)


@pytest.mark.perf
@pytest.mark.parametrize("guard", GUARDS, ids=[guard.name for guard in GUARDS])
def test_guard(guard: Guard) -> None:
    if (os.cpu_count() or 1) < guard.min_cores:
        pytest.skip(
            f"{guard.name} needs >= {guard.min_cores} cores; "
            "the identity guards gate smaller hosts"
        )
    results = run_benchmark()
    assert guard.check(results), results


def machine_facts() -> dict[str, object]:
    """Facts that make an archived timing interpretable on another host."""
    import scipy

    import repro

    return {
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count() or 1,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "repro_version": getattr(repro, "__version__", "unknown"),
    }


def dump_json(results: dict[str, float], path: str) -> None:
    """Archive the timings plus machine facts and enforced thresholds."""
    document = {
        "benchmark": "bench_graph_kernel",
        "machine": machine_facts(),
        "workload": {
            "num_vertices": NUM_VERTICES,
            "num_edges": NUM_EDGES,
            "num_seeds": NUM_SEEDS,
            "search_vertices": SEARCH_VERTICES,
            "search_edges": SEARCH_EDGES,
            "ppm_search_vertices": list(PPM_SEARCH_VERTICES),
            "ppm_search_steps": PPM_SEARCH_STEPS,
            "ppm_search_width": PPM_SEARCH_WIDTH,
            "heavy_search_vertices": HEAVY_SEARCH_VERTICES,
            "heavy_search_exponent": HEAVY_SEARCH_EXPONENT,
            "heavy_search_average_degree": HEAVY_SEARCH_AVERAGE_DEGREE,
            "parallel_vertices": PARALLEL_VERTICES,
            "parallel_blocks": PARALLEL_BLOCKS,
            "batch_widths": list(BATCH_WIDTHS),
            "worker_counts": list(PROCESS_WORKER_COUNTS),
            "process_vertices": PROCESS_VERTICES,
            "process_seeds": PROCESS_SEEDS,
            "session_repeats": SESSION_REPEATS,
            "session_seeds_per_call": SESSION_SEEDS_PER_CALL,
            "one_seed_calls": ONE_SEED_CALLS,
            "one_seed_workers": ONE_SEED_WORKERS,
            "one_seed_rounds": ONE_SEED_ROUNDS,
            "service_requests": SERVICE_REQUESTS,
            "service_concurrency": list(SERVICE_CONCURRENCY),
        },
        "thresholds": {
            "required_speedup": REQUIRED_SPEEDUP,
            "process_required_speedup": PROCESS_REQUIRED_SPEEDUP,
            "session_required_speedup": SESSION_REQUIRED_SPEEDUP,
            "service_required_speedup": SERVICE_REQUIRED_SPEEDUP,
        },
        "results": {key: results[key] for key in sorted(results)},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    print(f"\nwrote {path}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(
        description="Graph-kernel throughput benchmark (see module docstring)."
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also archive the timings + machine facts as JSON at PATH",
    )
    arguments = parser.parse_args(argv)
    table = run_benchmark()
    print_table(table)
    if arguments.json:
        dump_json(table, arguments.json)
    cores = os.cpu_count() or 1
    enforced = [guard for guard in GUARDS if cores >= guard.min_cores]
    failed = [guard.name for guard in enforced if not guard.check(table)]
    if failed:
        raise SystemExit(f"acceptance guards failed: {', '.join(failed)}")
    skipped = [guard.name for guard in GUARDS if cores < guard.min_cores]
    print(
        f"\nacceptance: {len(enforced)} guards passed"
        + (f" (not enforced on {cores} cores: {', '.join(skipped)})" if skipped else "")
    )


if __name__ == "__main__":
    main()
