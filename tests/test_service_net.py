"""Tests for the JSON-lines wire protocol (:mod:`repro.service_net`).

The contract: a detection requested over the socket returns the same
report — payload bit-identical after the exact JSON round trip — as the
in-process service, and every typed service error crosses the wire as
the same exception class the in-process surface raises.
"""

from __future__ import annotations

import json
import logging
import math
import operator
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import RunConfig, detect
from repro.exceptions import (
    AlgorithmError,
    BackendError,
    DeadlineExpiredError,
    ServiceError,
)
from repro.graphs import planted_partition_graph, ppm_expected_conductance, write_csr_graph
from repro.service import DetectionService
from repro.service_net import BackgroundServer, ServiceClient

PAYLOAD_KEYS = ("backend", "detection", "phase_costs", "total_cost", "artifacts", "params")


DETECT = operator.methodcaller("detect", 0)
METRICS = operator.methodcaller("metrics")


def payload(report) -> dict:
    data = report.to_dict()
    return {key: data[key] for key in PAYLOAD_KEYS}


@pytest.fixture(scope="module")
def ppm():
    n = 256
    p = 3 * math.log(n) ** 2 / n
    q = 1.0 / n
    instance = planted_partition_graph(n, 2, p, q, seed=7)
    delta = ppm_expected_conductance(n, 2, p, q)
    return instance, delta


@pytest.fixture()
def served(ppm):
    """A running service + server; yields (config, delta, host, port, service)."""
    instance, delta = ppm
    config = RunConfig(workers=2)
    with DetectionService(
        instance.graph, config=config, delta_hint=delta
    ) as service:
        with BackgroundServer(service) as server:
            yield instance, delta, config, server.host, server.port, service


class TestWireDetect:
    def test_detect_over_wire_identical_to_facade(self, served):
        instance, delta, config, host, port, _service = served
        with ServiceClient(host, port) as client:
            reply = client.detect(40)
        one_shot = detect(
            instance.graph,
            "batched",
            config=config.with_overrides(seeds=(40,)),
            delta_hint=delta,
        )
        assert payload(reply) == payload(one_shot)
        assert reply.metadata["service_wave_size"] == 1

    def test_repeated_replies_share_decoded_communities(self, served):
        _instance, _delta, _config, host, port, _service = served
        with ServiceClient(host, port) as client:
            first = client.detect(40)
            second = client.detect(40)
        assert payload(first) == payload(second)
        for one, two in zip(first.detection.communities, second.detection.communities):
            assert one.community is two.community
        # Keys and string values are shared objects too.
        assert [key for key in first.metadata] == [key for key in second.metadata]
        assert all(a is b for a, b in zip(first.metadata, second.metadata))
        assert first.metadata["backend_description"] is second.metadata["backend_description"]

    def test_concurrent_connections_coalesce(self, served):
        instance, delta, config, host, port, service = served
        seeds = (0, 40, 77, 130, 171, 200)
        replies = {}
        lock = threading.Lock()
        barrier = threading.Barrier(len(seeds))

        def wire_client(vertex):
            with ServiceClient(host, port) as client:
                barrier.wait()
                report = client.detect(vertex)
            with lock:
                replies[vertex] = report

        threads = [
            threading.Thread(target=wire_client, args=(s,)) for s in seeds
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for vertex in seeds:
            one_shot = detect(
                instance.graph,
                "batched",
                config=config.with_overrides(seeds=(vertex,)),
                delta_hint=delta,
            )
            assert payload(replies[vertex]) == payload(one_shot)
        metrics = service.metrics()
        assert metrics["requests_served"] >= len(seeds)
        assert metrics["waves"] <= metrics["requests_served"]

    def test_ping_and_metrics_ops(self, served):
        *_rest, host, port, _service = served
        with ServiceClient(host, port) as client:
            assert client.ping()
            client.detect(0)
            metrics = client.metrics()
        assert metrics["requests_served"] >= 1
        assert "wave_sizes" in metrics
        assert "coalescing_ratio" in metrics


class TestWireErrors:
    def test_out_of_range_seed_raises_algorithm_error(self, served):
        instance, *_rest = served
        *_ignored, host, port, _service = served
        with ServiceClient(host, port) as client:
            with pytest.raises(AlgorithmError, match="is not a vertex of"):
                client.detect(instance.graph.num_vertices)

    def test_deadline_expiry_crosses_the_wire(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta, start=False
        ) as service:
            with BackgroundServer(service) as server:
                # Start the dispatcher only after the request is queued, so
                # the deadline has provably expired at wave formation.
                starter = threading.Timer(0.2, service.start)
                starter.start()
                try:
                    with ServiceClient(server.host, server.port) as client:
                        with pytest.raises(DeadlineExpiredError):
                            client.detect(0, deadline=0.0)
                finally:
                    starter.cancel()

    def test_malformed_json_line_gets_bad_request(self, served):
        *_rest, host, port, _service = served
        with socket.create_connection((host, port), timeout=30) as raw:
            raw.sendall(b"this is not json\n")
            line = raw.makefile("rb").readline()
        response = json.loads(line)
        assert response["ok"] is False
        assert response["kind"] == "bad-request"

    def test_unknown_op_and_missing_seed(self, served):
        *_rest, host, port, _service = served
        with socket.create_connection((host, port), timeout=30) as raw:
            reader = raw.makefile("rb")
            raw.sendall(b'{"op": "explode", "id": 1}\n')
            response = json.loads(reader.readline())
            assert response["ok"] is False and response["kind"] == "bad-request"
            assert response["id"] == 1
            raw.sendall(b'{"op": "detect", "seed": "zero", "id": 2}\n')
            response = json.loads(reader.readline())
            assert response["ok"] is False and response["kind"] == "bad-request"
            assert "integer 'seed'" in response["error"]

    @pytest.mark.parametrize(
        ("literal", "kind"),
        (
            (b"NaN", "invalid-request"),
            (b"Infinity", "invalid-request"),
            (b"-1", "invalid-request"),
            (b"true", "bad-request"),
        ),
    )
    def test_malformed_deadline_is_rejected(self, served, literal, kind):
        *_rest, host, port, service = served
        with socket.create_connection((host, port), timeout=30) as raw:
            raw.sendall(b'{"op": "detect", "seed": 0, "id": 5, "deadline": ' + literal + b"}\n")
            response = json.loads(raw.makefile("rb").readline())
        assert response["ok"] is False
        assert response["kind"] == kind
        assert "deadline" in response["error"]
        assert service.metrics()["requests_admitted"] == 0

    def test_oversized_line_is_answered_then_closed(self, served):
        *_rest, host, port, _service = served
        with socket.create_connection((host, port), timeout=30) as raw:
            raw.sendall(b'{"op": "ping", "pad": "' + b"x" * 70_000 + b'"}\n')
            reader = raw.makefile("rb")
            response = json.loads(reader.readline())
            assert reader.readline() == b""  # the server hung up
        assert response["ok"] is False
        assert response["kind"] == "bad-request"
        assert str(64 * 1024) in response["error"]
        with ServiceClient(host, port) as client:
            assert client.ping()

    def test_client_raises_service_error_when_server_goes_away(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta
        ) as service:
            server = BackgroundServer(service)
            host, port = server.start()
            client = ServiceClient(host, port)
            assert client.ping()
            server.stop()
            with pytest.raises((ServiceError, OSError)):
                client.detect(0)
            client.close()

    def test_wave_failure_is_typed_and_keeps_the_connection(self, ppm, first_split_fails):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta
        ) as service:
            with BackgroundServer(service) as server:
                with ServiceClient(server.host, server.port) as client:
                    with pytest.raises(ServiceError, match="injected split failure"):
                        client.detect(0)
                    assert client.ping()
                    assert client.detect(0).detection.communities[0].seed == 0

    def test_untyped_server_fault_is_internal_and_keeps_the_connection(
        self, ppm, monkeypatch
    ):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta
        ) as service:
            serve = service.detect
            calls = []

            async def faulty_detect(seed, *, deadline=None):
                calls.append(seed)
                if len(calls) == 1:
                    raise RuntimeError("injected fault")
                return await serve(seed, deadline=deadline)

            monkeypatch.setattr(service, "detect", faulty_detect)
            with BackgroundServer(service) as server:
                with ServiceClient(server.host, server.port) as client:
                    with pytest.raises(ServiceError, match="RuntimeError: injected fault"):
                        client.detect(0)
                    assert client.detect(0).detection.communities[0].seed == 0
                    reply = client._roundtrip({"op": "ping"})
        assert calls == [0, 0]
        assert reply["pong"] is True

    def test_internal_kind_on_the_wire(self, ppm, monkeypatch, caplog):
        instance, delta = ppm
        caplog.set_level(logging.ERROR, logger="repro.service_net")
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta
        ) as service:

            async def faulty_detect(seed, *, deadline=None):
                raise ValueError("boom")

            def faulty_metrics():
                raise KeyError("gauge")

            monkeypatch.setattr(service, "detect", faulty_detect)
            monkeypatch.setattr(service, "metrics", faulty_metrics)
            with BackgroundServer(service) as server:
                with socket.create_connection((server.host, server.port), timeout=30) as raw:
                    raw.sendall(
                        b'{"op": "detect", "seed": 0, "id": 5}\n'
                        b'{"op": "metrics", "id": 6}\n{"op": "ping"}\n'
                    )
                    with raw.makefile("rb") as replies:
                        lines = [json.loads(replies.readline()) for _ in range(3)]
        assert lines == [
            {"id": 5, "ok": False, "kind": "internal", "error": "ValueError: boom"},
            {"id": 6, "ok": False, "kind": "internal", "error": "KeyError: 'gauge'"},
            {"id": None, "ok": True, "pong": True},
        ]
        records = [r for r in caplog.records if r.name == "repro.service_net"]
        assert [record.exc_info[0] for record in records] == [ValueError, KeyError]

    @pytest.mark.parametrize("abort", (False, True), ids=("close", "reset"))
    def test_client_vanishing_mid_wave_leaves_the_server_serving(self, ppm, caplog, abort):
        instance, delta = ppm
        config = RunConfig(workers=1)
        caplog.set_level(logging.DEBUG, logger="asyncio")

        def settle(predicate):
            deadline = time.monotonic() + 60
            while not predicate(service.metrics()):
                assert time.monotonic() < deadline, service.metrics()
                time.sleep(0.01)

        with DetectionService(
            instance.graph, config=config, delta_hint=delta, start=False
        ) as service:
            with BackgroundServer(service) as server:
                raw = socket.create_connection((server.host, server.port), timeout=30)
                raw.sendall(b'{"op": "detect", "seed": 0, "id": 1}\n')
                settle(lambda metrics: metrics["pending"] == 1)
                if abort:  # RST instead of FIN
                    raw.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                raw.close()
                # The client is gone before its wave has even formed.
                service.start()
                settle(lambda metrics: metrics["requests_served"] == 1)
                with ServiceClient(server.host, server.port) as client:
                    reply = client.detect(40)
                settle(
                    lambda metrics: metrics["pending"] == 0
                    and metrics["requests_served"] == metrics["requests_admitted"]
                )
                metrics = service.metrics()
        one_shot = detect(
            instance.graph,
            "batched",
            config=config.with_overrides(seeds=(40,)),
            delta_hint=delta,
        )
        assert payload(reply) == payload(one_shot)
        assert metrics["requests_admitted"] == metrics["requests_served"] == 2
        assert metrics["wave_failures"] == 0
        loop_records = [
            record
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.WARNING
        ]
        assert loop_records == []

    def test_bad_request_maps_to_backend_error(self, served):
        *_rest, host, port, _service = served
        with ServiceClient(host, port) as client:
            # A JSON boolean is not an acceptable wire seed, and the
            # "bad-request" kind must surface client-side as BackendError.
            with pytest.raises(BackendError, match="integer 'seed'"):
                client._roundtrip({"op": "detect", "seed": True})

    @pytest.mark.parametrize("past_end", (False, True), ids=("negative", "n"))
    def test_forged_member_id_raises_service_error(self, ppm, past_end):
        """A reply naming a vertex outside [0, n) is refused, never wrapped."""
        instance, delta = ppm
        forged = instance.graph.num_vertices if past_end else -1
        report = detect(
            instance.graph, "batched", config=RunConfig(seeds=(0,)), delta_hint=delta
        ).to_dict()
        report["detection"]["communities"][0]["community"].append(forged)
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer_once() -> None:
                connection, _address = listener.accept()
                with connection, connection.makefile("rb") as reader:
                    request = json.loads(reader.readline())
                    reply = {"id": request["id"], "ok": True, "report": report}
                    connection.sendall(json.dumps(reply).encode("utf-8") + b"\n")

            thread = threading.Thread(target=answer_once)
            thread.start()
            try:
                with ServiceClient(*listener.getsockname()) as client:
                    with pytest.raises(ServiceError, match="malformed detect reply"):
                        client.detect(0)
            finally:
                thread.join(timeout=30)

    def test_report_of_another_precision_raises_service_error(self, ppm):
        """A report whose config ran in float32 is refused, not read as float64."""
        instance, delta = ppm
        report = detect(
            instance.graph, "batched", config=RunConfig(seeds=(0,)), delta_hint=delta
        ).to_dict()
        report["config"]["dtype"] = "float32"
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer_once() -> None:
                connection, _address = listener.accept()
                with connection, connection.makefile("rb") as reader:
                    request = json.loads(reader.readline())
                    reply = {"id": request["id"], "ok": True, "report": report}
                    connection.sendall(json.dumps(reply).encode("utf-8") + b"\n")

            thread = threading.Thread(target=answer_once)
            thread.start()
            try:
                with ServiceClient(*listener.getsockname()) as client:
                    with pytest.raises(ServiceError, match="'float32'") as raised:
                        client.detect(0)
            finally:
                thread.join(timeout=30)
        assert isinstance(raised.value.__cause__, BackendError)

    @pytest.mark.parametrize(
        ("call", "reply", "cause"),
        (
            (DETECT, b'{"id": 0, "ok": true, "rep', json.JSONDecodeError),
            (DETECT, b'{"id": 0, "ok": true, "report": "\xff"}\n', UnicodeDecodeError),
            (DETECT, b'{"id": 0, "ok": true}\n', KeyError),
            (METRICS, b'{"id": 0, "ok": true}\n', KeyError),
        ),
        ids=("truncated-line", "not-utf8", "detect-without-report", "metrics-without-metrics"),
    )
    def test_malformed_reply_raises_service_error(self, call, reply, cause):
        """A reply the client cannot read is a ServiceError caused by the parse fault."""
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def answer_once() -> None:
                connection, _address = listener.accept()
                with connection, connection.makefile("rb") as reader:
                    reader.readline()
                    # The line is cut off when the reply has no newline:
                    # the connection closes right after it.
                    connection.sendall(reply)

            thread = threading.Thread(target=answer_once)
            thread.start()
            try:
                with ServiceClient(*listener.getsockname()) as client:
                    with pytest.raises(ServiceError, match="malformed") as raised:
                        call(client)
            finally:
                thread.join(timeout=30)
        assert isinstance(raised.value.__cause__, cause)


class TestServeShutdown:
    """``repro serve`` ends on SIGINT with exit status 0 after serving a request."""

    RUNS = 5
    GRACE_SECONDS = 20.0

    def test_sigint_after_a_detect_exits_zero(self, ppm, tmp_path):
        instance, _delta = ppm
        graph_file = tmp_path / "ppm.csr"
        write_csr_graph(instance.graph, graph_file)
        source = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        argv = [
            sys.executable, "-m", "repro", "serve", "--graph-file", str(graph_file),
            "--executor", "thread", "--workers", "1", "--port", "0",
        ]
        for run in range(self.RUNS):
            server = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
            )
            try:
                banner = server.stdout.readline()
                while banner and not banner.startswith("serving detections on"):
                    banner = server.stdout.readline()
                assert banner, f"run {run}: the server exited before serving"
                port = int(banner.rsplit(":", 1)[1])
                with ServiceClient("127.0.0.1", port) as client:
                    report = client.detect(run)
                assert report.detection.communities[0].seed == run
                server.send_signal(signal.SIGINT)
                out, err = server.communicate(timeout=self.GRACE_SECONDS)
            finally:
                if server.poll() is None:
                    server.kill()
                    server.communicate()
            assert server.returncode == 0, f"run {run}: exit {server.returncode}: {err}"
            assert "shutting down" in out
