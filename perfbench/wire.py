"""wire-closed-loop: a ``ServiceClient`` connection against ``repro serve``.

The benchmark writes the PPM to a ``.csr`` file and starts ``python -m
repro serve --graph-file ... --executor thread --workers 1 --port 0`` in a
process group of its own, reading the bound port from the server's stdout.
One client connection then runs a closed loop over uniform seeds.  This is
what a ``repro serve`` user sees: JSON encoding and decoding, asyncio and
the socket.  The graph is small, so per-request fixed
costs weigh more; the seeds share no work, the control for the hot-seed
mix of service-open-loop; and loading the file exercises the memmap
storage tier during set-up.  The server runs out of process so that client
decoding does not compete with it for the GIL.

The server runs its kernels serially (``--workers 1``): with two kernel
threads the server's threads and the client process contend for the two
cores, and the median latency of repeated runs on one seed varied by 17-32%
(against 8% serially).  One connection, not two: two closed-loop clients
lock into alternating or shared waves for a whole run, and the median
latency jumped between about 37 and 46 ms from run to run.

Set-up is mostly the server interpreter's start-up and imports, about
0.5-0.8 s of CPU time.  On a shared host the speed of interpreted code
drifts by a quarter over tens of seconds, so set-ups taken back to back
sample one moment of the host.  The run therefore sets up 18 servers and
reports the median set-up time; every other server runs one of nine equal
segments of the timed closed loop before it is stopped, which spreads the
set-ups over the whole run.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .common import Outcome, mean, median, percentile, planted_partition, rng_for, same_community
from .procs import GroupChild, Ownership
from .service_loop import COUNTERS, counter_deltas, put_seeds_per_s, put_service_counters, put_wave_layers
from .tracing import measure_kernels

SERVING_PREFIX = "serving detections on "


@dataclass(frozen=True)
class WireSpec:
    n: int = 2048
    blocks: int = 4
    workers: int = 1
    sample: int = 16
    f_floor: float = 0.5
    setups: int = 18
    segments: int = 9
    executor: str = "thread"


FULL = WireSpec()
TOY = WireSpec(n=256, sample=4, f_floor=0.2, setups=2, segments=2)


def start_server(
    ownership: Ownership, graph_file: Path, spec: WireSpec, root: Path
) -> tuple[GroupChild, int]:
    """Start ``repro serve`` in its own process group; return it and its port."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    argv = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--graph-file",
        str(graph_file),
        "--executor",
        spec.executor,
        "--workers",
        str(spec.workers),
        "--port",
        "0",
    ]
    server = ownership.start(argv, cwd=str(root), env=env)
    try:
        line = server.read_line_with_prefix(SERVING_PREFIX, timeout=120)
    except BaseException:
        server.stop()
        raise
    return server, int(line.rsplit(":", 1)[1])


def run(spec: WireSpec, seed: int, seconds: float, trace: bool, ownership: Ownership) -> Outcome:
    from repro.api import RunConfig, RunReport, detect
    from repro.graphs import load_graph_file, write_csr_graph
    from repro.metrics import score_detection
    from repro.service_net import ServiceClient

    out = Outcome()
    root = Path.cwd()
    work = root / ".perfbench_work" / f"wire-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    graph_file = work / "ppm.csr"
    rng = rng_for(seed, "wire-closed-loop")
    warm_seed = int(rng.integers(spec.n))

    setup_seconds, generate_seconds = [], []
    phase = _Phase()
    per_segment = spec.setups // spec.segments
    server: GroupChild | None = None
    try:
        try:
            for attempt in range(spec.setups):
                start = time.perf_counter()
                ppm, generated = planted_partition(spec.n, spec.blocks, seed)
                write_started = time.perf_counter()
                write_csr_graph(ppm.graph, graph_file)
                generated += time.perf_counter() - write_started
                server, port = start_server(ownership, graph_file, spec, root)
                with ServiceClient("127.0.0.1", port) as client:
                    client.detect(warm_seed)
                setup_seconds.append(time.perf_counter() - start)
                generate_seconds.append(generated)
                if attempt % per_segment == per_segment - 1:
                    _closed_loop(phase, attempt, port, seconds / spec.segments, rng, spec.n)
                out.check(server.stop(), "a server group needed SIGKILL to stop")
                server = None
        finally:
            if server is not None:
                out.check(server.stop(), "the server group needed SIGKILL to stop")

        replies: dict[int, Any] = {}
        waves: dict[tuple[int, int], Any] = {}  # (segment, wave index) -> one reply
        latencies, overheads, queue_waits, f_scores = [], [], [], []
        for segment, seed_vertex, seconds_taken, report, error in phase.records:
            out.attempted += 1
            if report is None:
                out.failed += 1
                out.problems.append(f"request for seed {seed_vertex} failed: {error!r}")
                continue
            community = report.detection.communities[0]
            if not out.check(
                community.seed == seed_vertex and seed_vertex in community.community,
                f"the reply does not contain its seed {seed_vertex}",
            ):
                out.failed += 1
                continue
            replies.setdefault(seed_vertex, report)
            latencies.append(seconds_taken)
            queue = report.timings["service_queue_wait_seconds"]
            queue_waits.append(queue)
            overheads.append(seconds_taken - queue - report.timings["service_wave_seconds"])
            waves.setdefault((segment, int(report.metadata["service_wave"])), report)
            f_scores.append(score_detection(report.detection, ppm.partition)[0].f_score)
        out.check(
            not f_scores or mean(f_scores) >= spec.f_floor,
            f"mean f_score {mean(f_scores):.4f} below the floor {spec.f_floor}",
        )

        # A sample of replies must equal an in-process detect() on the same
        # file with the server's configuration (delta resolved from the graph).
        sample = tuple(list(replies)[: spec.sample])
        if sample:
            graph, _truth, _info = load_graph_file(graph_file)
            check_config = RunConfig(
                seeds=sample,
                batch_size=len(sample),
                executor=spec.executor,
                workers=spec.workers,
                capture_history=False,
            )

            def inprocess() -> Any:
                return detect(graph, "batched", config=check_config)

            checked = measure_kernels(out, inprocess) if trace else [inprocess()]
            for report in checked:
                for community in report.detection.communities:
                    out.check(
                        same_community(replies[community.seed].detection.communities[0], community),
                        f"seed {community.seed}: the server reply differs from in-process detect()",
                    )
            del graph, checked  # release the memmap before the file goes
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    served = len(latencies)
    out.put("setup_s", median(setup_seconds), len(setup_seconds))
    put_seeds_per_s(out, list(waves.values()))
    out.put("requests_per_s", served / phase.elapsed if phase.elapsed else 0.0, served)
    out.put("latency_p50_ms", 1e3 * median(latencies), served)
    out.put("latency_p95_ms", 1e3 * percentile(latencies, 95), served)
    out.put("f_score", mean(f_scores), len(f_scores))
    out.put("graphs.generate_s", median(generate_seconds), len(generate_seconds))
    out.put("loadgen.requests", len(phase.records))
    out.put("loadgen.lag_ms_p95", 1e3 * percentile(phase.lags, 95), len(phase.lags))
    out.put("loadgen.lag_ms_max", 1e3 * max(phase.lags, default=0.0), len(phase.lags))
    out.put("service.queue_wait_ms_p50", 1e3 * median(queue_waits), served)
    out.put("service.queue_wait_ms_p95", 1e3 * percentile(queue_waits, 95), served)
    put_wave_layers(out, list(waves.values()))
    put_service_counters(out, phase.counters, [record[1] for record in phase.records])
    out.put("service.pending_max", phase.pending_max)
    if trace:
        out.put("service_net.overhead_ms_p50", 1e3 * median(overheads), served)
        encode, decode, sizes = [], [], []
        for report in list(replies.values())[:200]:
            began = time.perf_counter()
            line = json.dumps(
                {"id": 0, "ok": True, "report": report.to_dict()}, separators=(",", ":")
            )
            encode.append(time.perf_counter() - began)
            sizes.append(len(line.encode("utf-8")) + 1)  # + the newline
            began = time.perf_counter()
            RunReport.from_dict(json.loads(line)["report"])
            decode.append(time.perf_counter() - began)
        out.put("service_net.reply_bytes_mean", mean(sizes), len(sizes))
        out.put("service_net.encode_ms_mean", 1e3 * mean(encode), len(encode))
        out.put("service_net.decode_ms_mean", 1e3 * mean(decode), len(decode))
    return out


@dataclass
class _Phase:
    """The closed loop over every segment of the run."""

    elapsed: float = 0.0
    #: (segment, seed, seconds, report or None, error or None) per request.
    records: list[tuple[int, int, float, Any, BaseException | None]] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    pending_max: int = 0
    counters: dict[str, float] = field(default_factory=lambda: dict.fromkeys(COUNTERS, 0.0))


def _closed_loop(phase: _Phase, segment: int, port: int, seconds: float, rng: Any, n: int) -> None:
    """Send the next request as soon as the previous reply lands."""
    from repro.exceptions import ReproError
    from repro.service_net import ServiceClient

    try:
        with ServiceClient("127.0.0.1", port) as client:
            before = client.metrics()
            start = previous = time.perf_counter()
            while previous < start + seconds:
                seed_vertex = int(rng.integers(n))
                began = time.perf_counter()
                phase.lags.append(began - previous)
                try:
                    report, error = client.detect(seed_vertex), None
                except ReproError as failure:
                    report, error = None, failure
                previous = time.perf_counter()
                phase.records.append((segment, seed_vertex, previous - began, report, error))
                if report is not None:
                    pending = int(report.metadata["service_metrics"]["pending"])
                    phase.pending_max = max(phase.pending_max, pending)
            phase.elapsed += previous - start
            for key, value in counter_deltas(before, client.metrics()).items():
                phase.counters[key] += value
    except OSError as failure:  # the connection itself broke
        phase.records.append((segment, -1, 0.0, None, failure))
