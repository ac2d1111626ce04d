"""Tests for the concurrent :class:`repro.service.DetectionService`.

The contract under test (see ``src/repro/service.py``): N concurrent
single-seed clients must receive payloads **bit-identical** to N one-shot
``detect()`` calls, on both executors at workers ∈ {1, 2, 4}, while the
service coalesces the pending requests into strictly fewer
``detect_batch`` waves than requests.  Backpressure, deadlines, duplicate
fan-out and shutdown semantics are pinned alongside.
"""

from __future__ import annotations

import asyncio
import math
import threading

import pytest

from repro.api import RunConfig, detect, split_batched_report
from repro.exceptions import (
    AlgorithmError,
    BackendError,
    DeadlineExpiredError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.graphs import planted_partition_graph, ppm_expected_conductance
from repro.service import DetectionService
from repro.session import DetectionSession

WORKER_COUNTS = (1, 2, 4)
EXECUTORS = ("thread", "process")

#: The parts of a serialized report the run *computes* — required identical
#: between service replies and one-shot runs.  ``config`` / ``timings`` /
#: ``metadata`` describe the run (the service adds wave facts and a metrics
#: snapshot to ``metadata``).
PAYLOAD_KEYS = ("backend", "detection", "phase_costs", "total_cost", "artifacts", "params")


def payload(report) -> dict:
    data = report.to_dict()
    return {key: data[key] for key in PAYLOAD_KEYS}


@pytest.fixture(scope="module")
def ppm():
    """A small PPM instance plus its analytic conductance hint."""
    n = 256
    p = 3 * math.log(n) ** 2 / n
    q = 1.0 / n
    instance = planted_partition_graph(n, 2, p, q, seed=7)
    delta = ppm_expected_conductance(n, 2, p, q)
    return instance, delta


def submit_concurrently(service, seeds):
    """Submit one request per seed from one thread per seed, concurrently."""
    barrier = threading.Barrier(len(seeds))
    futures = {}

    def client(vertex):
        barrier.wait()
        futures[vertex] = service.submit(vertex)

    threads = [threading.Thread(target=client, args=(s,)) for s in seeds]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return futures


# ----------------------------------------------------------------------
# Bit-identity against the one-shot facade (satellite: service semantics)
# ----------------------------------------------------------------------
class TestConcurrentIdentity:
    SEEDS = (0, 17, 40, 77, 130, 171, 200, 233)

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_concurrent_clients_bit_identical(self, ppm, executor, workers):
        # start=False holds the dispatcher until every client thread has
        # submitted: genuinely concurrent admission, deterministic waves.
        instance, delta = ppm
        config = RunConfig(workers=workers, executor=executor)
        with DetectionService(
            instance.graph, config=config, delta_hint=delta, start=False
        ) as service:
            futures = submit_concurrently(service, self.SEEDS)
            service.start()
            replies = {s: futures[s].result(timeout=600) for s in self.SEEDS}
            metrics = service.metrics()
        # Coalescing counter: strictly fewer waves than requests.
        assert 1 <= metrics["waves"] < len(self.SEEDS)
        assert metrics["requests_served"] == len(self.SEEDS)
        assert metrics["coalescing_ratio"] > 1.0
        for vertex in self.SEEDS:
            one_shot = detect(
                instance.graph,
                "batched",
                config=config.with_overrides(seeds=(vertex,)),
                delta_hint=delta,
            )
            assert payload(replies[vertex]) == payload(one_shot)

    def test_live_dispatcher_identity(self, ppm):
        # Clients submit against a running dispatcher and block on their own
        # results — the service must coalesce whatever overlaps and never
        # change a payload.
        instance, delta = ppm
        config = RunConfig(workers=2)
        seeds = self.SEEDS
        replies = {}
        lock = threading.Lock()
        barrier = threading.Barrier(len(seeds))

        def client(service, vertex):
            barrier.wait()
            report = service.submit(vertex).result(timeout=600)
            with lock:
                replies[vertex] = report

        with DetectionService(
            instance.graph, config=config, delta_hint=delta
        ) as service:
            threads = [
                threading.Thread(target=client, args=(service, s)) for s in seeds
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            metrics = service.metrics()
        assert metrics["waves"] <= len(seeds)
        assert metrics["requests_served"] == len(seeds)
        for vertex in seeds:
            one_shot = detect(
                instance.graph,
                "batched",
                config=config.with_overrides(seeds=(vertex,)),
                delta_hint=delta,
            )
            assert payload(replies[vertex]) == payload(one_shot)

    def test_capture_distributions_rows_sliced_exactly(self, ppm):
        instance, delta = ppm
        config = RunConfig(workers=1, capture_distributions=True)
        with DetectionService(
            instance.graph, config=config, delta_hint=delta, start=False
        ) as service:
            futures = {s: service.submit(s) for s in (0, 130)}
            service.start()
            replies = {s: f.result(timeout=600) for s, f in futures.items()}
        for vertex, reply in replies.items():
            one_shot = detect(
                instance.graph,
                "batched",
                config=config.with_overrides(seeds=(vertex,)),
                delta_hint=delta,
            )
            assert payload(reply) == payload(one_shot)
            assert "final_distributions" in reply.artifacts


# ----------------------------------------------------------------------
# Wave formation and coalescing mechanics
# ----------------------------------------------------------------------
class TestWaveFormation:
    def test_paused_service_coalesces_up_to_max_wave(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph,
            config=RunConfig(workers=1),
            delta_hint=delta,
            max_wave=4,
            start=False,
        ) as service:
            futures = [service.submit(s) for s in range(10)]
            service.start()
            for future in futures:
                future.result(timeout=600)
            metrics = service.metrics()
        assert metrics["waves"] == 3  # 4 + 4 + 2
        assert metrics["wave_sizes"] == {"2": 1, "4": 2}
        assert metrics["coalescing_ratio"] == pytest.approx(10 / 3)

    def test_duplicate_seeds_share_one_wave_slot(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta, start=False
        ) as service:
            futures = [service.submit(5), service.submit(5), service.submit(5),
                       service.submit(9)]
            service.start()
            replies = [future.result(timeout=600) for future in futures]
            metrics = service.metrics()
        assert metrics["waves"] == 1
        assert metrics["wave_sizes"] == {"2": 1}  # seeds {5, 9}, one wave
        assert metrics["duplicate_requests_coalesced"] == 2
        assert payload(replies[0]) == payload(replies[1]) == payload(replies[2])
        assert replies[3].detection.communities[0].seed == 9

    def test_reply_metadata_carries_service_observability(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta, start=False
        ) as service:
            futures = [service.submit(s) for s in (0, 40)]
            service.start()
            reply = futures[0].result(timeout=600)
            futures[1].result(timeout=600)
        assert reply.metadata["service_wave"] == 1
        assert reply.metadata["service_wave_size"] == 2
        assert reply.metadata["service_wave_requests"] == 2
        assert reply.metadata["service_coalesced"] is True
        snapshot = reply.metadata["service_metrics"]
        assert snapshot["wave_sizes"] == {"2": 1}
        assert snapshot["coalescing_ratio"] == 2.0
        assert snapshot["requests_rejected"] == 0
        assert snapshot["requests_expired"] == 0
        assert reply.timings["service_queue_wait_seconds"] >= 0.0
        assert reply.timings["service_wave_seconds"] > 0.0
        # The reply must survive the report's exact JSON round trip.
        from repro.api import RunReport

        assert RunReport.from_json(reply.to_json()) == reply


# ----------------------------------------------------------------------
# Backpressure (satellite: overload-rejection path)
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_overload_rejection_and_recovery(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph,
            config=RunConfig(workers=1),
            delta_hint=delta,
            max_pending=2,
            start=False,
        ) as service:
            first = service.submit(0)
            second = service.submit(1)
            with pytest.raises(ServiceOverloadedError, match="admission queue is full"):
                service.submit(2)
            assert service.metrics()["requests_rejected"] == 1
            service.start()
            first.result(timeout=600)
            second.result(timeout=600)
            # Queue drained: admissions flow again.
            third = service.submit(2)
            assert third.result(timeout=600).detection.communities[0].seed == 2

    def test_rejection_does_not_fail_admitted_requests(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph,
            config=RunConfig(workers=1),
            delta_hint=delta,
            max_pending=1,
            start=False,
        ) as service:
            admitted = service.submit(0)
            with pytest.raises(ServiceOverloadedError):
                service.submit(1)
            service.start()
            assert admitted.result(timeout=600).detection.num_communities == 1


# ----------------------------------------------------------------------
# Deadlines (satellite: deadline-expiry path)
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_request_fails_before_wave_formation(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta, start=False
        ) as service:
            doomed = service.submit(0, deadline=0.0)
            healthy = service.submit(40)
            service.start()
            with pytest.raises(DeadlineExpiredError, match="expired in the admission queue"):
                doomed.result(timeout=600)
            report = healthy.result(timeout=600)
            metrics = service.metrics()
        assert metrics["requests_expired"] == 1
        assert metrics["requests_served"] == 1
        # The expired request never occupied a wave slot.
        assert report.metadata["service_wave_size"] == 1

    @pytest.mark.parametrize(
        "deadline",
        (math.nan, math.inf, -math.inf, -1.0, True),
        ids=("nan", "inf", "-inf", "negative", "bool"),
    )
    def test_malformed_deadline_rejected_before_admission(self, ppm, deadline):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta, start=False
        ) as service:
            before = service.metrics()
            with pytest.raises(BackendError, match="deadline"):
                service.submit(0, deadline=deadline)
            # No future was queued and no counter moved.
            assert service.metrics() == before

    def test_generous_deadline_is_served(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta
        ) as service:
            report = service.submit(0, deadline=600.0).result(timeout=600)
        assert report.detection.communities[0].seed == 0

    def test_cancelled_future_skips_the_wave(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta, start=False
        ) as service:
            doomed = service.submit(0)
            healthy = service.submit(40)
            assert doomed.cancel()
            service.start()
            healthy.result(timeout=600)
            metrics = service.metrics()
        assert metrics["requests_cancelled"] == 1
        assert metrics["requests_served"] == 1


# ----------------------------------------------------------------------
# Async front end
# ----------------------------------------------------------------------
class TestAsyncFrontEnd:
    def test_async_detect_matches_one_shot(self, ppm):
        instance, delta = ppm
        config = RunConfig(workers=2)
        seeds = (0, 40, 130, 200)

        async def gather(service):
            return await asyncio.gather(*(service.detect(s) for s in seeds))

        with DetectionService(
            instance.graph, config=config, delta_hint=delta
        ) as service:
            replies = asyncio.run(gather(service))
            metrics = service.metrics()
        assert metrics["requests_served"] == len(seeds)
        for vertex, reply in zip(seeds, replies):
            one_shot = detect(
                instance.graph,
                "batched",
                config=config.with_overrides(seeds=(vertex,)),
                delta_hint=delta,
            )
            assert payload(reply) == payload(one_shot)

    def test_async_deadline_error_propagates(self, ppm):
        instance, delta = ppm

        async def scenario(service):
            task = asyncio.ensure_future(service.detect(0, deadline=0.0))
            await asyncio.sleep(0)  # let the submit land before starting
            service.start()
            with pytest.raises(DeadlineExpiredError):
                await task

        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta, start=False
        ) as service:
            asyncio.run(scenario(service))

    def test_async_typed_rejections_are_synchronous_errors(self, ppm):
        instance, delta = ppm

        async def scenario(service):
            with pytest.raises(AlgorithmError, match="is not a vertex"):
                await service.detect(instance.graph.num_vertices)

        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta
        ) as service:
            asyncio.run(scenario(service))


# ----------------------------------------------------------------------
# Admission validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_out_of_range_seed_rejected_synchronously(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta
        ) as service:
            with pytest.raises(AlgorithmError, match="is not a vertex of"):
                service.submit(instance.graph.num_vertices)
            with pytest.raises(AlgorithmError, match="is not a vertex of"):
                service.submit(-1)
            assert service.metrics()["requests_admitted"] == 0

    def test_non_integer_seed_rejected(self, ppm):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta
        ) as service:
            with pytest.raises(BackendError, match="must be an integer"):
                service.submit("zero")

    def test_constructor_needs_exactly_one_of_graph_or_session(self, ppm):
        instance, delta = ppm
        with pytest.raises(BackendError, match="exactly one of"):
            DetectionService()
        with DetectionSession(instance.graph, delta_hint=delta) as session:
            with pytest.raises(BackendError, match="exactly one of"):
                DetectionService(instance.graph, session=session)
            with pytest.raises(BackendError, match="belong to the session"):
                DetectionService(session=session, config=RunConfig())

    def test_bounds_validated(self, ppm):
        instance, _ = ppm
        with pytest.raises(BackendError, match="max_pending"):
            DetectionService(instance.graph, max_pending=0)
        with pytest.raises(BackendError, match="max_wave"):
            DetectionService(instance.graph, max_wave=0)


# ----------------------------------------------------------------------
# Shutdown semantics
# ----------------------------------------------------------------------
class TestShutdown:
    def test_close_drains_pending_requests(self, ppm):
        instance, delta = ppm
        service = DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta, start=False
        )
        futures = [service.submit(s) for s in (0, 40, 130)]
        service.close()  # drain=True default: every admitted request is served
        assert service.closed
        for vertex, future in zip((0, 40, 130), futures):
            assert future.result(timeout=1).detection.communities[0].seed == vertex
        with pytest.raises(ServiceClosedError):
            service.submit(200)

    def test_close_without_drain_abandons_pending(self, ppm):
        instance, delta = ppm
        service = DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta, start=False
        )
        futures = [service.submit(s) for s in (0, 40)]
        service.close(drain=False)
        for future in futures:
            with pytest.raises(ServiceClosedError, match="closed before this request"):
                future.result(timeout=1)
        assert service.metrics()["requests_abandoned"] == 2

    def test_owned_session_closed_with_service(self, ppm):
        instance, delta = ppm
        with DetectionService(instance.graph, delta_hint=delta) as service:
            session = service.session
            assert not session.closed
        assert session.closed

    def test_adopted_session_left_open(self, ppm):
        instance, delta = ppm
        with DetectionSession(instance.graph, delta_hint=delta) as session:
            with DetectionService(session=session) as service:
                service.submit(0).result(timeout=600)
            assert not session.closed
            # The session still works after the service is gone.
            session.detect(seeds=(40,))

    def test_start_after_close_raises(self, ppm):
        instance, delta = ppm
        service = DetectionService(instance.graph, delta_hint=delta, start=False)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.start()
        service.close()  # idempotent


# ----------------------------------------------------------------------
# Lock-discipline regressions (PR 10 — found by the REP2xx analyzer)
# ----------------------------------------------------------------------
class TestConcurrencyRegressions:
    def test_submit_close_race_strands_no_future(self, ppm):
        # submit() used to construct the reply future *before* the
        # closed/full checks (REP204): a rejection raised past a pending
        # future nobody could ever resolve.  Race submits against close()
        # and require a total outcome for every client — a served report
        # or a synchronous ServiceClosedError, never a forever-pending
        # future.
        instance, delta = ppm
        seeds = (0, 40, 130)
        for _ in range(3):
            service = DetectionService(
                instance.graph,
                config=RunConfig(workers=1),
                delta_hint=delta,
                start=False,
            )
            barrier = threading.Barrier(len(seeds) + 1)
            outcomes = {}

            def client(vertex, service=service, barrier=barrier, outcomes=outcomes):
                barrier.wait()
                try:
                    outcomes[vertex] = service.submit(vertex)
                except ServiceClosedError:
                    outcomes[vertex] = None

            threads = [threading.Thread(target=client, args=(v,)) for v in seeds]
            for thread in threads:
                thread.start()
            barrier.wait()
            service.close()  # drain=True: whatever won admission is served
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert service.closed
            for vertex in seeds:
                future = outcomes[vertex]
                if future is not None:
                    report = future.result(timeout=600)
                    assert report.detection.communities[0].seed == vertex

    def test_closed_property_consistent_under_lock(self, ppm):
        instance, delta = ppm
        service = DetectionService(instance.graph, delta_hint=delta, start=False)
        assert not service.closed
        repr(service)  # state snapshot reads take the lock, must not hang
        service.close()
        assert service.closed
        assert "closed" in repr(service)


class TestWaveFailure:
    def test_untyped_wave_failure_is_a_service_error(self, ppm, first_split_fails):
        instance, delta = ppm
        with DetectionService(
            instance.graph, config=RunConfig(workers=1), delta_hint=delta
        ) as service:
            with pytest.raises(ServiceError, match="injected split failure") as caught:
                service.submit(0).result(timeout=600)
            assert isinstance(caught.value.__cause__, RuntimeError)
            assert service.metrics()["wave_failures"] == 1
            report = service.submit(40).result(timeout=600)
            assert report.detection.communities[0].seed == 40


# ----------------------------------------------------------------------
# Wave-report slicing helper
# ----------------------------------------------------------------------
class TestSplitBatchedReport:
    def test_split_matches_single_seed_calls(self, ppm):
        instance, delta = ppm
        config = RunConfig(
            workers=1, seeds=(0, 40, 130), batch_size=3, capture_distributions=True
        )
        wave = detect(instance.graph, "batched", config=config, delta_hint=delta)
        singles = split_batched_report(wave)
        assert len(singles) == 3
        for vertex, single in zip((0, 40, 130), singles):
            one_shot = detect(
                instance.graph,
                "batched",
                config=config.with_overrides(seeds=(vertex,), batch_size=3),
                delta_hint=delta,
            )
            assert payload(single) == payload(one_shot)

    def test_split_rejects_pool_mode_reports(self, ppm):
        instance, delta = ppm
        report = detect(
            instance.graph,
            "batched",
            config=RunConfig(workers=1, max_seeds=2),
            delta_hint=delta,
        )
        with pytest.raises(BackendError, match="pool-mode"):
            split_batched_report(report)

    def test_split_rejects_costed_reports(self, ppm):
        instance, delta = ppm
        report = detect(
            instance.graph,
            "congest",
            config=RunConfig(max_seeds=1),
            delta_hint=delta,
        )
        with pytest.raises(BackendError, match="phase costs"):
            split_batched_report(report)
