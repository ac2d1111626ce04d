"""Fault injection: a process-tier worker that dies mid-call.

A shard function that calls ``os._exit`` when its shard holds a sentinel
seed replaces the real one before any pool forks, so the worker dies the
way a SIGKILLed or out-of-memory worker would.  Only a round that two
workers can share reaches the pool (one seed, or a one-worker pool, runs on
the calling thread), so every crashing round here holds two seeds on two
workers.  The contract under test: the call fails with the typed
:class:`~repro.exceptions.WorkerCrashedError`, the session keeps its
broadcast and serves its next call from a fresh executor with the one-shot
answer, the coalescing service counts one wave failure and keeps serving,
and the wire reply is an ``error`` on a connection that stays open.
"""

from __future__ import annotations

import json
import math
import os
import socket
import time

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
            config=CONFIG.with_overrides(seeds=(0, CRASH_SEED), batch_size=1),
            delta_hint=delta,
        )


def test_service_counts_the_failure_and_serves_the_next_wave(ppm, crashing_shards):
    instance, delta = ppm
    with DetectionService(
        instance.graph, config=CONFIG, delta_hint=delta, start=False
    ) as service:
        # Both admitted before the dispatcher starts: one two-seed wave.
        crashed = service.submit(CRASH_SEED)
        partner = service.submit(0)
        service.start()
        with pytest.raises(WorkerCrashedError):
            crashed.result(timeout=60)
        with pytest.raises(WorkerCrashedError):
            partner.result(timeout=60)
        report = service.submit(0).result(timeout=60)
        metrics = service.metrics()
    assert metrics["wave_failures"] == 1
    one_shot = detect(
        instance.graph, "batched", config=CONFIG.with_overrides(seeds=(0,)), delta_hint=delta
    )
    assert payload(report) == payload(one_shot)


def _wait_until_pending(service: DetectionService, count: int) -> None:
    deadline = time.monotonic() + 60
    while service.metrics()["pending"] < count:
        assert time.monotonic() < deadline, "the requests were not admitted"
        time.sleep(0.005)


def test_wire_reply_is_an_error_and_the_connection_stays_open(ppm, crashing_shards):
    instance, delta = ppm
    request = b'{"op": "detect", "seed": %d, "id": %d}\n'
    with DetectionService(
        instance.graph, config=CONFIG, delta_hint=delta, start=False
    ) as service:
        with BackgroundServer(service) as server:
            address = (server.host, server.port)
            with socket.create_connection(address, timeout=60) as raw, \
                    socket.create_connection(address, timeout=60) as other:
                reader = raw.makefile("rb")
                raw.sendall(request % (CRASH_SEED, 1))
                other.sendall(request % (0, 3))
                # Both admitted before the dispatcher starts: one two-seed wave.
                _wait_until_pending(service, 2)
                service.start()
                failed = json.loads(reader.readline())
                partner = json.loads(other.makefile("rb").readline())
                raw.sendall(request % (0, 2))
                served = json.loads(reader.readline())
    assert failed["ok"] is False and failed["kind"] == "error" and failed["id"] == 1
    assert "worker process died" in failed["error"]
    assert partner["ok"] is False and partner["kind"] == "error" and partner["id"] == 3
    assert served["ok"] is True and served["id"] == 2


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"seeds": (CRASH_SEED,)}, id="one-seed"),
        pytest.param(
            {"seeds": (0, CRASH_SEED), "batch_size": 1, "workers": 1}, id="one-worker"
        ),
    ],
)
def test_a_round_two_workers_cannot_share_stays_on_the_calling_thread(
    ppm, crashing_shards, overrides
):
    # The sentinel seed would kill any worker it reached.
    instance, delta = ppm
    config = CONFIG.with_overrides(**overrides)
    report = detect(instance.graph, "batched", config=config, delta_hint=delta)
    thread = detect(
        instance.graph,
        "batched",
        config=config.with_overrides(executor="thread"),
        delta_hint=delta,
    )
    assert report.metadata["process_tasks"] == 0
    assert report.timings["shard_seconds_total"] == 0.0
    assert payload(report) == payload(thread)


def test_a_two_seed_round_on_two_workers_is_shipped(ppm, crashing_shards):
    instance, delta = ppm
    config = CONFIG.with_overrides(seeds=(0, 130), batch_size=1)
    report = detect(instance.graph, "batched", config=config, delta_hint=delta)
    thread = detect(
        instance.graph,
        "batched",
        config=config.with_overrides(executor="thread"),
        delta_hint=delta,
    )
    assert report.metadata["process_tasks"] == 2
    assert payload(report) == payload(thread)
