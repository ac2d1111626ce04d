"""Fault injection: a process-tier worker that dies mid-call.

A shard function that calls ``os._exit`` when its shard holds a sentinel
seed replaces the real one before any pool forks, so the worker dies the
way a SIGKILLed or out-of-memory worker would.  The contract under test:
the call fails with the typed :class:`~repro.exceptions.WorkerCrashedError`,
the session keeps its broadcast and serves its next call from a fresh
executor with the one-shot answer, the coalescing service counts one wave
failure and keeps serving, and the wire reply is an ``error`` on a
connection that stays open.
"""

from __future__ import annotations

import json
import math
import os
import socket

import pytest

import repro.execution_process as execution_process
from repro.api import RunConfig, detect
from repro.exceptions import BackendError, WorkerCrashedError
from repro.graphs import planted_partition_graph, ppm_expected_conductance
from repro.service import DetectionService
from repro.service_net import BackgroundServer
from repro.session import DetectionSession

#: A seed whose shard kills its worker process.
CRASH_SEED = 77

_run_shard = execution_process._run_shard

PAYLOAD_KEYS = ("backend", "detection", "phase_costs", "total_cost", "artifacts", "params")


def payload(report) -> dict:
    data = report.to_dict()
    return {key: data[key] for key in PAYLOAD_KEYS}


def _crash_on_sentinel(task):
    """The real shard function, except that the sentinel seed kills the worker."""
    if CRASH_SEED in task.seeds:
        os._exit(3)
    return _run_shard(task)


@pytest.fixture(scope="module")
def ppm():
    n = 256
    p = 3 * math.log(n) ** 2 / n
    q = 1.0 / n
    instance = planted_partition_graph(n, 2, p, q, seed=7)
    return instance, ppm_expected_conductance(n, 2, p, q)


@pytest.fixture()
def crashing_shards(monkeypatch):
    # Module-level, so the executor pickles it by reference; installed
    # before the test starts any pool.
    monkeypatch.setattr(execution_process, "_run_shard", _crash_on_sentinel)


CONFIG = RunConfig(workers=2, executor="process")


def test_session_raises_typed_error_and_recovers(ppm, crashing_shards):
    instance, delta = ppm
    with DetectionSession(instance.graph, config=CONFIG, delta_hint=delta) as session:
        with pytest.raises(WorkerCrashedError, match="worker process died"):
            session.detect(seeds=(0, CRASH_SEED), batch_size=1)
        after = session.detect(seeds=(0, 130), batch_size=1)
        assert session.broadcasts == 1
    assert issubclass(WorkerCrashedError, BackendError)
    assert after.metadata["session_broadcasts"] == 1
    assert after.metadata["session_pool_reused"] is False  # a fresh executor
    one_shot = detect(
        instance.graph,
        "batched",
        config=CONFIG.with_overrides(seeds=(0, 130), batch_size=1),
        delta_hint=delta,
    )
    assert payload(after) == payload(one_shot)


def test_one_shot_call_raises_typed_error(ppm, crashing_shards):
    instance, delta = ppm
    with pytest.raises(WorkerCrashedError):
        detect(
            instance.graph,
            "batched",
            config=CONFIG.with_overrides(seeds=(CRASH_SEED,)),
            delta_hint=delta,
        )


def test_service_counts_the_failure_and_serves_the_next_wave(ppm, crashing_shards):
    instance, delta = ppm
    with DetectionService(instance.graph, config=CONFIG, delta_hint=delta) as service:
        with pytest.raises(WorkerCrashedError):
            service.submit(CRASH_SEED).result(timeout=60)
        report = service.submit(0).result(timeout=60)
        metrics = service.metrics()
    assert metrics["wave_failures"] == 1
    one_shot = detect(
        instance.graph, "batched", config=CONFIG.with_overrides(seeds=(0,)), delta_hint=delta
    )
    assert payload(report) == payload(one_shot)


def test_wire_reply_is_an_error_and_the_connection_stays_open(ppm, crashing_shards):
    instance, delta = ppm
    with DetectionService(instance.graph, config=CONFIG, delta_hint=delta) as service:
        with BackgroundServer(service) as server:
            with socket.create_connection((server.host, server.port), timeout=60) as raw:
                reader = raw.makefile("rb")
                raw.sendall(b'{"op": "detect", "seed": %d, "id": 1}\n' % CRASH_SEED)
                failed = json.loads(reader.readline())
                raw.sendall(b'{"op": "detect", "seed": 0, "id": 2}\n')
                served = json.loads(reader.readline())
    assert failed["ok"] is False and failed["kind"] == "error" and failed["id"] == 1
    assert "worker process died" in failed["error"]
    assert served["ok"] is True and served["id"] == 2
