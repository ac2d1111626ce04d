"""The benchmark's own tests, at toy size.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs end to end in a subprocess and must emit every metric of
``BENCHMARK.json`` with its unit and a sample count; no process the run
started may survive it, including a run that fails or is interrupted
midway.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import compare, procs, run, service_loop, wire  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics each workload must actually measure (samples > 0).
KERNEL_LAYERS = {
    "graphs.generate_s",
    "randomwalk.step_s",
    "core.mixing_set.search_s",
    "core.stopping.observe_s",
    "core.batched.unaccounted_s",
    "trace.overhead_ratio",
    "loadgen.requests",
}
SERVICE_LAYERS = {
    "service.queue_wait_ms_p50",
    "service.wave_ms_p50",
    "service.coalescing_ratio",
    "session.reuse_ratio",
}
EXERCISED = {
    "service-open-loop": KERNEL_LAYERS
    | SERVICE_LAYERS
    | {"execution_process.shard_compute_s", "api.split_ms", "loadgen.lag_ms_p95"},
    "wire-closed-loop": KERNEL_LAYERS
    | SERVICE_LAYERS
    | {"service_net.overhead_ms_p50", "service_net.reply_bytes_mean", "service_net.decode_ms_mean"},
}


def _cmdline_alive(fragment: str) -> list[int]:
    """Pids of running processes whose command line contains ``fragment``."""
    alive = []
    for entry in procs.process_table():
        if entry.state in "ZXx":
            continue
        try:
            cmdline = Path(f"/proc/{entry.pid}/cmdline").read_bytes()
        except OSError:
            continue
        if fragment.encode() in cmdline:
            alive.append(entry.pid)
    return alive


def _start(workload: str, trace: int, seconds: float) -> subprocess.Popen[str]:
    return subprocess.Popen(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
            "--toy",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def test_benchmark_json_follows_the_contract() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == sorted(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_toy_run_reports_every_metric_and_leaves_no_process(workload: str, trace: int) -> None:
    child = _start(workload, trace, seconds=1.0)
    out, err = child.communicate(timeout=170)
    assert child.returncode == 0, err
    *_, record_line, result_line = out.strip().splitlines()
    record, result = json.loads(record_line)["record"], json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    assert set(record["samples"]) == set(result["metrics"])
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), name
        if not trace:
            assert entry["value"] > 0 and record["samples"][name] >= 1, name
    if trace:
        for name in EXERCISED[workload]:
            assert record["samples"][name] >= 1, name
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "repro", "seed"} <= set(record["host"])
    assert (workload == "wire-closed-loop") == bool(record["process_groups"])
    for pgid in [child.pid, *record["process_groups"]]:
        assert procs.live_in_group(pgid) == []


def test_interrupted_wire_run_leaves_no_process() -> None:
    child = _start("wire-closed-loop", 0, seconds=60.0)
    marker = f"wire-{child.pid}"
    try:
        deadline = time.monotonic() + 60
        while not _cmdline_alive(marker):
            assert child.poll() is None and time.monotonic() < deadline, "server never started"
            time.sleep(0.05)
        time.sleep(1.0)  # inside set-up or the closed loop
        child.send_signal(signal.SIGTERM)
        out, _err = child.communicate(timeout=60)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    assert child.returncode != 0
    assert '"correct"' not in out
    assert _cmdline_alive(marker) == []
    assert procs.live_in_group(child.pid) == []


def _raise(*_args: object, **_kwargs: object) -> None:
    raise RuntimeError("injected failure")


def test_wire_failure_midway_stops_the_server(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(wire, "_closed_loop", _raise)
    ownership = procs.Ownership()
    with pytest.raises(RuntimeError, match="injected"):
        wire.run(wire.TOY, 1, 1.0, False, ownership)
    assert ownership.groups
    assert ownership.survivors() == []


def test_service_failure_midway_closes_the_pool(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(service_loop, "_open_loop", _raise)
    ownership = procs.Ownership()
    with pytest.raises(RuntimeError, match="injected"):
        service_loop.run(service_loop.TOY, 1, 1.0, False, ownership)
    assert ownership.survivors() == []


def test_process_tier_server_group_is_emptied(tmp_path: Path) -> None:
    """A process-tier server forks pool workers into its group; stop() waits for them."""
    from repro.graphs import write_csr_graph
    from repro.service_net import ServiceClient

    from perfbench.common import planted_partition

    ppm, _ = planted_partition(256, 4, seed=1)
    graph_file = tmp_path / "toy.csr"
    write_csr_graph(ppm.graph, graph_file)
    ownership = procs.Ownership()
    server, port = wire.start_server(ownership, graph_file, replace(wire.TOY, executor="process"), ROOT)
    try:
        with ServiceClient("127.0.0.1", port) as client:
            client.detect(0)
        assert len(procs.live_in_group(server.pgid)) > 1  # leader + pool workers
    finally:
        server.stop()
    assert procs.live_in_group(server.pgid) == []
    assert ownership.survivors() == []


def test_stripped_checkout_fails_without_a_result(tmp_path: Path) -> None:
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "service-open-loop", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout


def _saved(nproc: int, latency: float) -> dict[str, object]:
    return {
        "record": {"workload": "wire-closed-loop", "trace": 0, "host": {"nproc": nproc}},
        "result": {"metrics": {"latency_p50_ms": {"value": latency, "unit": "ms"}}},
    }


def test_compare_refuses_different_core_counts() -> None:
    bounds = {"latency_p50_ms": ("lower", 0.25)}
    status, lines = compare.compare(_saved(1, 40.0), _saved(2, 40.0), bounds)
    assert status == 2 and "core counts differ" in lines[0]
    assert compare.compare(_saved(2, 40.0), _saved(2, 45.0), bounds)[0] == 0
    assert compare.compare(_saved(2, 40.0), _saved(2, 60.0), bounds)[0] == 1
