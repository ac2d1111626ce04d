"""service-open-loop: ``DetectionService.submit()`` under Poisson arrivals.

Independent users form an open loop: one generator thread submits
single-seed requests on a schedule fixed before the run, whatever the
service does, so the admission queue, wave formation, the session caches
and report slicing are all exercised.  A quarter of the seeds come from 16
hot vertices, which exposes work sharing (duplicate coalescing, a future
reply cache).

The schedule places ``rate x seconds`` arrivals uniformly at random in the
run window -- a Poisson process conditioned on its count.  It is one fixed
trace, drawn from a constant stream rather than from ``--seed``, so runs
differ in graph and seeds but not in burst structure: with a fresh trace
per seed the p95 latency spread across seeds was 0.4-0.6 of its median.
Latency is measured from each request's scheduled send time, so a stalled
generator or a stalled service shows up in it.

n = 4096 at 6 req/s keeps the service well below saturation, so the tail
measures the service rather than chance bursts: at n = 8192 a single-seed
wave takes about 70 ms on two cores and 10 req/s ran near capacity, and at
n = 4096 and 10 req/s the p95 spread across seeds was still 0.25.  A
45-second run sends 270 requests, so 13 lie beyond the p95.

Set-up is short (about 80 ms), so it is repeated 21 times and the median
reported.  The host's speed steps up or down by a third every few tens of
seconds, so set-ups taken back to back sample one moment of it: every
third service therefore runs one of seven equal windows of the trace
before it is closed, which spreads the set-ups over the whole run.

``requests_per_s`` is requests answered per second the dispatcher was busy
(summed wave time), not per second of the run: the offered load is fixed,
so requests per wall second would only echo the arrival rate.
"""

from __future__ import annotations

import bisect
import threading
import time
from dataclasses import dataclass
from typing import Any

from .common import Outcome, mean, median, percentile, planted_partition, rng_for, same_community
from .tracing import LayerTrace, measure_kernels


@dataclass(frozen=True)
class ServiceSpec:
    n: int = 4096
    blocks: int = 4
    workers: int = 2
    rate: float = 6.0
    hot_seeds: int = 16
    hot_share: float = 0.25
    f_floor: float = 0.9
    max_lag_ms_p95: float = 50.0
    setups: int = 21
    segments: int = 7


FULL = ServiceSpec()
TOY = ServiceSpec(n=512, rate=20.0, hot_seeds=4, f_floor=0.3, setups=4, segments=2)


def run(spec: ServiceSpec, seed: int, seconds: float, trace: bool, _ownership: object) -> Outcome:
    from repro.api import RunConfig, detect
    from repro.metrics import score_detection
    from repro.service import DetectionService

    out = Outcome()
    rng = rng_for(seed, "service-open-loop")
    hot = [int(s) for s in rng.choice(spec.n, spec.hot_seeds, replace=False)]
    count = max(1, round(spec.rate * seconds))
    offsets = sorted(float(x) for x in rng_for(0, "arrivals").uniform(0.0, seconds, count))
    seeds = [
        hot[int(rng.integers(len(hot)))] if rng.random() < spec.hot_share else int(rng.integers(spec.n))
        for _ in range(count)
    ]
    config = RunConfig(executor="process", workers=spec.workers, capture_history=False)
    window = seconds / spec.segments
    edges = [bisect.bisect_left(offsets, j * window) for j in range(spec.segments)] + [count]
    per_segment = spec.setups // spec.segments

    setup_seconds, generate_seconds = [], []
    phases: list[_Phase] = []  # one per segment
    counts = dict.fromkeys(COUNTERS, 0.0)
    layers = LayerTrace()
    service = None
    try:
        for attempt in range(spec.setups):
            start = time.perf_counter()
            ppm, generated = planted_partition(spec.n, spec.blocks, seed)
            service = DetectionService(ppm.graph, config=config, delta_hint=ppm.delta_hint)
            service.submit(hot[0]).result(timeout=120)
            setup_seconds.append(time.perf_counter() - start)
            generate_seconds.append(generated)
            if attempt % per_segment == per_segment - 1:
                segment = len(phases)
                lo, hi = edges[segment], edges[segment + 1]
                before = service.metrics()
                with layers.installed(kernels=False, split=trace):
                    phases.append(
                        _open_loop(service, [o - segment * window for o in offsets[lo:hi]], seeds[lo:hi])
                    )
                for key, value in counter_deltas(before, service.metrics()).items():
                    counts[key] += value
            service.close()
            service = None
    finally:
        if service is not None:
            service.close()

    replies: dict[int, Any] = {}  # seed -> first reply
    waves: dict[tuple[int, int], Any] = {}  # (segment, wave index) -> one reply
    latencies, queue_waits, f_scores = [], [], []
    for segment, phase in enumerate(phases):
        for index, (seed_vertex, due, done, future) in enumerate(phase.requests):
            out.attempted += 1
            error = future.exception() if future is not None and future.done() else phase.errors.get(index)
            if future is None or error is not None or done is None:
                out.failed += 1
                out.problems.append(f"segment {segment} request {index} (seed {seed_vertex}) failed: {error!r}")
                continue
            report = future.result()
            community = report.detection.communities[0]
            if not out.check(
                community.seed == seed_vertex and seed_vertex in community.community,
                f"segment {segment} request {index}: the reply does not answer seed {seed_vertex}",
            ):
                out.failed += 1
                continue
            first = replies.setdefault(seed_vertex, report)
            if not out.check(
                same_community(first.detection.communities[0], community),
                f"seed {seed_vertex}: replies differ across waves",
            ):
                out.failed += 1
            latencies.append(done - due)
            queue_waits.append(report.timings["service_queue_wait_seconds"])
            waves.setdefault((segment, int(report.metadata["service_wave"])), report)
            f_scores.append(score_detection(report.detection, ppm.partition)[0].f_score)
    out.check(
        not f_scores or mean(f_scores) >= spec.f_floor,
        f"mean f_score {mean(f_scores):.4f} below the floor {spec.f_floor}",
    )

    # Each hot seed's reply must equal a one-shot detect() of that seed.
    check_config = RunConfig(
        seeds=tuple(hot), batch_size=len(hot), executor="thread", workers=1, capture_history=False
    )

    def oneshot() -> Any:
        return detect(ppm.graph, "batched", config=check_config, delta_hint=ppm.delta_hint)

    checked = measure_kernels(out, oneshot) if trace else [oneshot()]
    for report in checked:
        for community in report.detection.communities:
            reply = replies.get(community.seed)
            if reply is not None:
                out.check(
                    same_community(reply.detection.communities[0], community),
                    f"hot seed {community.seed}: the service reply differs from one-shot detect()",
                )

    lags = [lag for phase in phases for lag in phase.lags]
    lag_p95 = 1e3 * percentile(lags, 95)
    out.check(
        lag_p95 <= spec.max_lag_ms_p95,
        f"invalid run: the generator fell behind (lag p95 {lag_p95:.1f} ms)",
    )
    for segment, phase in enumerate(phases):
        half = len(phase.pending) // 2
        first_half = mean([p for _, p in phase.pending[:half]])
        second_half = mean([p for _, p in phase.pending[half:]])
        out.check(
            second_half <= 2.0 * first_half + 2.0,
            f"invalid run: the backlog grew in segment {segment} "
            f"(mean pending {first_half:.1f} -> {second_half:.1f})",
        )
    pending = [p for phase in phases for _, p in phase.pending]

    served = len(latencies)
    wave_reports = list(waves.values())
    # The arrival rate is fixed, so served / elapsed would only echo it:
    # the open-loop throughput is requests per second the dispatcher was busy.
    busy = sum(r.timings["service_wave_seconds"] for r in wave_reports)
    out.put("setup_s", median(setup_seconds), len(setup_seconds))
    put_seeds_per_s(out, wave_reports)
    out.put("requests_per_s", served / busy if busy else 0.0, served)
    out.put("latency_p50_ms", 1e3 * median(latencies), served)
    out.put("latency_p95_ms", 1e3 * percentile(latencies, 95), served)
    out.put("f_score", mean(f_scores), len(f_scores))
    out.put("graphs.generate_s", median(generate_seconds), len(generate_seconds))
    out.put("loadgen.requests", sum(len(phase.requests) for phase in phases))
    out.put("loadgen.lag_ms_p95", lag_p95, len(lags))
    out.put("loadgen.lag_ms_max", 1e3 * max(lags, default=0.0), len(lags))
    out.put("service.queue_wait_ms_p50", 1e3 * median(queue_waits), served)
    out.put("service.queue_wait_ms_p95", 1e3 * percentile(queue_waits, 95), served)
    put_wave_layers(out, wave_reports)
    put_service_counters(out, counts, seeds)
    out.put("service.pending_max", max(pending, default=0), len(pending))
    if trace:
        splits = layers.counts.get("api.split", 0)
        out.put("api.split_ms", 1e3 * layers.seconds.get("api.split", 0.0) / max(1, splits), splits)
    return out


#: The ``DetectionService.metrics()`` counters the benchmark reports.
COUNTERS = (
    "waves",
    "requests_served",
    "duplicate_requests_coalesced",
    "requests_rejected",
    "requests_expired",
    "wave_failures",
)


def counter_deltas(before: dict[str, Any], after: dict[str, Any]) -> dict[str, float]:
    """Counter increments between two ``metrics()`` snapshots."""
    return {key: float(after[key]) - float(before[key]) for key in COUNTERS}


def put_service_counters(out: Outcome, counts: dict[str, float], seeds: list[int]) -> None:
    """Service counters over the timed phase (see :func:`counter_deltas`)."""
    waves = counts["waves"]
    duplicates = counts["duplicate_requests_coalesced"]
    repeats = len(seeds) - len(set(seeds))  # requests whose seed came earlier
    out.put("service.waves", waves)
    out.put("service.coalescing_ratio", counts["requests_served"] / waves if waves else 0.0, int(waves))
    out.put("service.duplicates_coalesced", duplicates)
    out.put("service.duplicate_hit_ratio", duplicates / repeats if repeats else 0.0, repeats)
    out.put("service.rejected", counts["requests_rejected"])
    out.put("service.expired", counts["requests_expired"])
    out.put("service.wave_failures", counts["wave_failures"])


def put_seeds_per_s(out: Outcome, wave_reports: list[Any]) -> None:
    """Distinct seeds detected per second of wave compute (one reply per wave).

    Duplicate seeds share a wave slot, so this counts detections the
    service actually ran, not requests answered.
    """
    seeds = sum(int(r.metadata["service_wave_size"]) for r in wave_reports)
    busy = sum(r.timings["service_wave_seconds"] for r in wave_reports)
    out.put("seeds_per_s", seeds / busy if busy else 0.0, seeds)


def put_wave_layers(out: Outcome, wave_reports: list[Any]) -> None:
    """Layer metrics read from one reply per service wave."""
    count = len(wave_reports)
    if not count:
        return
    out.put("service.wave_ms_p50", 1e3 * median([r.timings["service_wave_seconds"] for r in wave_reports]), count)
    out.put("service.wave_size_mean", mean([r.metadata["service_wave_size"] for r in wave_reports]), count)
    reused = [
        all(value for key, value in r.metadata.items() if key.startswith("session_") and key.endswith("_reused"))
        for r in wave_reports
    ]
    out.put("session.reuse_ratio", sum(reused) / count, count)
    if any("shard_seconds_max" not in r.timings for r in wave_reports):
        return  # thread tier: no process shards to split
    shard_max = [r.timings["shard_seconds_max"] for r in wave_reports]
    out.put(
        "execution_process.shard_compute_s",
        mean([r.timings["shard_seconds_total"] for r in wave_reports]),
        count,
    )
    out.put("execution_process.shard_max_s", mean(shard_max), count)
    out.put(
        "execution_process.dispatch_overhead_s",
        mean([r.timings["total_seconds"] - m for r, m in zip(wave_reports, shard_max)]),
        count,
    )
    out.put("execution_process.tasks", sum(int(r.metadata["process_tasks"]) for r in wave_reports), count)


@dataclass
class _Phase:
    requests: list[tuple[int, float, float | None, Any]]
    errors: dict[int, BaseException]
    lags: list[float]
    pending: list[tuple[float, int]]


def _open_loop(service: Any, offsets: list[float], seeds: list[int]) -> _Phase:
    """Submit on schedule from one generator thread; wait on the futures."""
    from repro.exceptions import ReproError

    done_at: list[float | None] = [None] * len(offsets)
    futures: list[Any] = [None] * len(offsets)
    errors: dict[int, BaseException] = {}
    lags: list[float] = []
    pending: list[tuple[float, int]] = []
    started = time.perf_counter() + 0.05

    def mark_done(index: int) -> Any:
        def callback(_future: Any) -> None:
            done_at[index] = time.perf_counter()

        return callback

    stop = threading.Event()

    def generate() -> None:
        for index, (offset, seed_vertex) in enumerate(zip(offsets, seeds)):
            due = started + offset
            if stop.wait(max(0.0, due - time.perf_counter())):
                return  # the run is being torn down
            lags.append(max(0.0, time.perf_counter() - due))
            pending.append((offset, int(service.metrics()["pending"])))
            try:
                future = service.submit(seed_vertex)
            except ReproError as error:
                errors[index] = error
                continue
            future.add_done_callback(mark_done(index))
            futures[index] = future

    generator = threading.Thread(target=generate, name="perfbench-loadgen")
    generator.start()
    try:
        generator.join()
        for future in futures:
            if future is not None:
                try:
                    future.result(timeout=120)
                except ReproError:
                    pass  # recorded per request by the caller
    finally:
        stop.set()
        generator.join()
    # result() can return before the future's done-callbacks have run.
    settle = time.monotonic() + 5.0
    while time.monotonic() < settle and any(
        t is None for t, f in zip(done_at, futures) if f is not None
    ):
        time.sleep(0.001)
    return _Phase(
        requests=[
            (seeds[i], started + offsets[i], done_at[i], futures[i]) for i in range(len(offsets))
        ],
        errors=errors,
        lags=lags,
        pending=pending,
    )
