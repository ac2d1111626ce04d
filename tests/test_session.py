"""Tests for the resident :class:`repro.session.DetectionSession`.

The contract under test (see ``src/repro/session.py``): a session call must
produce a computed payload — detections, cost totals, artifacts — that is
**bit-identical** to the session-free facade for the same knobs, at every
worker count on both executors.  Caching the broadcast, the worker pool,
the walk operator, the mixing-set search and the resolved δ may only move
the wall clock and the report metadata.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.api import RunConfig, RunReport, detect
from repro.core import CDRWParameters
from repro.exceptions import BackendError
from repro.graphs import Graph, planted_partition_graph, ppm_expected_conductance
from repro.session import DetectionSession

WORKER_COUNTS = (1, 2, 4)
EXECUTORS = ("thread", "process")

#: The parts of a serialized report the run *computes* — required identical
#: between session and one-shot runs.  The remaining keys (``config``,
#: ``timings``, ``metadata``) describe the run itself and naturally differ
#: (the session adds its reuse counters to ``metadata``).
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


# ----------------------------------------------------------------------
# Bit-identity against the one-shot facade
# ----------------------------------------------------------------------
class TestSessionIdentity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_batched_payload_identical(self, ppm, executor, workers):
        instance, delta = ppm
        config = RunConfig(
            seeds=(0, 40, 130, 200),
            batch_size=2,
            workers=workers,
            executor=executor,
            capture_distributions=True,
        )
        one_shot = detect(instance.graph, "batched", config=config, delta_hint=delta)
        with DetectionSession(instance.graph, config=config, delta_hint=delta) as s:
            resident = s.detect()
        assert payload(resident) == payload(one_shot)
        assert resident.to_dict()["detection"] == one_shot.to_dict()["detection"]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_batched_pool_mode_identical(self, ppm, executor):
        # No explicit seeds: the facade draws them from the pool loop's RNG.
        # The session must reproduce the exact draw sequence.
        instance, delta = ppm
        config = RunConfig(
            seed=11, max_seeds=6, batch_size=3, workers=2, executor=executor
        )
        one_shot = detect(instance.graph, "batched", config=config, delta_hint=delta)
        with DetectionSession(instance.graph, config=config, delta_hint=delta) as s:
            resident = s.detect()
        assert payload(resident) == payload(one_shot)

    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_parallel_payload_identical(self, ppm, executor, workers):
        instance, delta = ppm
        config = RunConfig(
            seed=3, num_communities=2, workers=workers, executor=executor
        )
        one_shot = detect(instance.graph, "parallel", config=config, delta_hint=delta)
        with DetectionSession(instance.graph, config=config, delta_hint=delta) as s:
            resident = s.detect(backend="parallel")
        assert payload(resident) == payload(one_shot)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_repeated_calls_stay_identical(self, ppm, executor):
        # Cache hits on later calls must not perturb a single float.
        instance, delta = ppm
        config = RunConfig(workers=2, executor=executor, batch_size=2)
        requests = [(0, 130), (5, 77), (0, 130)]
        one_shot = [
            detect(
                instance.graph,
                "batched",
                config=config.with_overrides(seeds=request),
                delta_hint=delta,
            )
            for request in requests
        ]
        with DetectionSession(instance.graph, config=config, delta_hint=delta) as s:
            resident = [s.detect(seeds=request) for request in requests]
        for fresh, cached in zip(one_shot, resident):
            assert payload(cached) == payload(fresh)

    def test_serialized_roundtrip(self, ppm):
        instance, delta = ppm
        with DetectionSession(instance.graph, delta_hint=delta) as s:
            report = s.detect(seeds=(0, 130), batch_size=2)
        assert RunReport.from_json(report.to_json()) == report

    def test_edgeless_graph_both_executors(self):
        graph = Graph(6, [])
        for executor in EXECUTORS:
            config = RunConfig(seeds=(0, 3), executor=executor)
            one_shot = detect(graph, "batched", config=config)
            with DetectionSession(graph, config=config) as s:
                resident = s.detect()
            assert payload(resident) == payload(one_shot)


# ----------------------------------------------------------------------
# Residency: one broadcast, persistent pool, cache hits
# ----------------------------------------------------------------------
class TestSessionResidency:
    def test_process_broadcasts_exactly_once(self, ppm):
        instance, delta = ppm
        config = RunConfig(workers=2, executor="process", batch_size=2)
        with DetectionSession(instance.graph, config=config, delta_hint=delta) as s:
            first = s.detect(seeds=(0, 130))
            second = s.detect(seeds=(5, 200))
            third = s.detect(seeds=(9, 90))
            assert s.broadcasts == 1
        assert first.metadata["session_broadcasts"] == 1
        assert third.metadata["session_broadcasts"] == 1
        assert first.metadata["session_pool_reused"] is False
        assert second.metadata["session_pool_reused"] is True
        assert third.metadata["session_pool_reused"] is True
        assert [r.metadata["session_calls"] for r in (first, second, third)] == [1, 2, 3]

    def test_thread_tier_never_broadcasts(self, ppm):
        instance, delta = ppm
        config = RunConfig(executor="thread")
        with DetectionSession(instance.graph, config=config, delta_hint=delta) as s:
            first = s.detect(seeds=(0, 130), batch_size=2)
            second = s.detect(seeds=(5, 200), batch_size=2)
            assert s.broadcasts == 0
        assert first.metadata["session_prepared_reused"] is False
        assert second.metadata["session_prepared_reused"] is True

    def test_tiers_and_worker_counts_share_one_prepared_context(self, ppm):
        instance, delta = ppm
        with DetectionSession(instance.graph, delta_hint=delta) as s:
            first = s.detect(seeds=(0,), executor="thread", workers=1)
            wider = s.detect(seeds=(0,), executor="thread", workers=4)
            process = s.detect(seeds=(0,), executor="process", workers=2)
        assert first.detection == wider.detection == process.detection
        assert first.metadata["session_prepared_reused"] is False
        assert wider.metadata["session_prepared_reused"] is True
        assert process.metadata["session_prepared_reused"] is True

    def test_worker_change_rebuilds_executor_not_broadcast(self, ppm):
        instance, delta = ppm
        with DetectionSession(instance.graph, delta_hint=delta) as s:
            one = s.detect(seeds=(0,), executor="process", workers=1)
            two = s.detect(seeds=(0,), executor="process", workers=2)
            again = s.detect(seeds=(0,), executor="process", workers=2)
            assert s.broadcasts == 1
        assert one.detection == two.detection == again.detection
        assert two.metadata["session_pool_reused"] is False  # executor rebuilt
        assert again.metadata["session_pool_reused"] is True

    def test_delta_cache_per_hint(self, ppm):
        instance, delta = ppm
        with DetectionSession(instance.graph, delta_hint=delta) as s:
            first = s.detect(seeds=(0,))
            second = s.detect(seeds=(0,))
            other_hint = s.detect(seeds=(0,), delta_hint=delta * 0.5)
            other_params = s.detect(seeds=(0,), params=CDRWParameters(walk_length_factor=5))
        assert first.metadata["session_prepared_reused"] is False
        assert second.metadata["session_prepared_reused"] is True
        assert other_hint.metadata["session_prepared_reused"] is False
        assert other_params.metadata["session_prepared_reused"] is False

    def test_stationary_distribution_cached(self, ppm):
        instance, _ = ppm
        with DetectionSession(instance.graph) as s:
            first = s.stationary_distribution
            assert s.stationary_distribution is first
            degrees = instance.graph.csr_arrays()[2]
            expected = degrees / degrees.sum()
            np.testing.assert_allclose(first, expected)


# ----------------------------------------------------------------------
# Independence between sessions
# ----------------------------------------------------------------------
class TestSessionIndependence:
    def test_two_sessions_do_not_share_state(self, ppm, two_cliques_graph):
        instance, delta = ppm
        with DetectionSession(instance.graph, delta_hint=delta) as a:
            with DetectionSession(two_cliques_graph) as b:
                report_a = a.detect(seeds=(0,))
                report_b = b.detect(seeds=(0,))
                assert a._prepared is not b._prepared
                assert report_a.metadata["num_vertices"] == instance.graph.num_vertices
                assert (
                    report_b.metadata["num_vertices"]
                    == two_cliques_graph.num_vertices
                )
                # b's answer matches a fresh facade run on its own graph.
                fresh_b = detect(two_cliques_graph, "batched", config=RunConfig(seeds=(0,)))
                assert payload(report_b) == payload(fresh_b)

    def test_closing_one_session_leaves_the_other_usable(self, ppm, two_cliques_graph):
        instance, delta = ppm
        a = DetectionSession(instance.graph, delta_hint=delta)
        b = DetectionSession(two_cliques_graph)
        try:
            a.detect(seeds=(0,), executor="process", workers=1)
            a.close()
            report = b.detect(seeds=(0,))
            assert report.detection.num_communities == 1
        finally:
            a.close()
            b.close()


# ----------------------------------------------------------------------
# Facade guards
# ----------------------------------------------------------------------
class TestSessionGuards:
    def test_constructor_rejects_non_graph(self):
        with pytest.raises(BackendError, match="needs a Graph"):
            DetectionSession("not a graph")

    def test_facade_rejects_foreign_graph(self, ppm, two_cliques_graph):
        instance, _ = ppm
        with DetectionSession(instance.graph) as s:
            with pytest.raises(BackendError, match="session's own graph"):
                detect(two_cliques_graph, "batched", session=s)

    def test_facade_rejects_equal_but_distinct_graph(self, two_cliques_graph):
        clone = Graph(
            two_cliques_graph.num_vertices, list(two_cliques_graph.edges())
        )
        assert clone == two_cliques_graph
        with DetectionSession(two_cliques_graph) as s:
            with pytest.raises(BackendError, match="session's own graph"):
                detect(clone, "batched", session=s)

    def test_facade_rejects_sessionless_backend(self, ppm):
        instance, _ = ppm
        with DetectionSession(instance.graph) as s:
            with pytest.raises(BackendError, match="does not support resident sessions"):
                s.detect(backend="scalar")

    def test_closed_session_rejects_calls(self, ppm):
        instance, _ = ppm
        s = DetectionSession(instance.graph)
        s.close()
        with pytest.raises(BackendError, match="closed"):
            s.detect(seeds=(0,))
        with pytest.raises(BackendError, match="closed"):
            detect(instance.graph, "batched", session=s)

    def test_close_is_idempotent(self, ppm):
        instance, _ = ppm
        s = DetectionSession(instance.graph)
        s.detect(seeds=(0,), executor="process", workers=1)
        s.close()
        s.close()
        assert s.closed


# ----------------------------------------------------------------------
# Request coalescing
# ----------------------------------------------------------------------
class TestDetectBatchCoalescing:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_coalesced_equals_per_seed_calls(self, ppm, executor):
        instance, delta = ppm
        seeds = (0, 40, 130, 200)
        config = RunConfig(workers=2, executor=executor)
        with DetectionSession(instance.graph, config=config, delta_hint=delta) as s:
            coalesced = s.detect_batch(seeds)
            singles = [s.detect(seeds=(seed,)) for seed in seeds]
        assert coalesced.detection.num_communities == len(seeds)
        for one, community in zip(singles, coalesced.detection.communities):
            assert one.detection.communities[0] == community

    def test_batch_size_defaults_to_request_width(self, ppm):
        instance, delta = ppm
        with DetectionSession(instance.graph, delta_hint=delta) as s:
            report = s.detect_batch((0, 40, 130))
        assert report.config.batch_size == 3
        # An explicit batch_size override wins over the default.
        with DetectionSession(instance.graph, delta_hint=delta) as s:
            report = s.detect_batch((0, 40, 130), batch_size=1)
        assert report.config.batch_size == 1


# ----------------------------------------------------------------------
# Session defaults
# ----------------------------------------------------------------------
class TestSessionDefaults:
    def test_session_config_and_hint_are_defaults(self, ppm):
        instance, delta = ppm
        config = RunConfig(seeds=(0, 130), batch_size=2)
        with DetectionSession(instance.graph, config=config, delta_hint=delta) as s:
            defaulted = s.detect()
        one_shot = detect(instance.graph, "batched", config=config, delta_hint=delta)
        assert payload(defaulted) == payload(one_shot)

    def test_per_call_config_overrides_session_default(self, ppm):
        instance, delta = ppm
        session_config = RunConfig(seeds=(0,))
        call_config = RunConfig(seeds=(130,))
        with DetectionSession(
            instance.graph, config=session_config, delta_hint=delta
        ) as s:
            report = s.detect(config=call_config)
        assert report.detection.communities[0].seed == 130

    def test_keyword_overrides_apply_on_top(self, ppm):
        instance, delta = ppm
        with DetectionSession(instance.graph, delta_hint=delta) as s:
            report = s.detect(seeds=(0, 130), batch_size=1)
        assert report.config.batch_size == 1
        assert report.config.seeds == (0, 130)


# ----------------------------------------------------------------------
# capture_history fast path (satellite S1)
# ----------------------------------------------------------------------
class TestCaptureHistoryFastPath:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_histories_skipped_results_unchanged(self, ppm, executor):
        instance, delta = ppm
        base = RunConfig(seeds=(0, 130), batch_size=2, workers=2, executor=executor)
        full = detect(
            instance.graph, "batched", config=base, delta_hint=delta
        )
        slim = detect(
            instance.graph,
            "batched",
            config=base.with_overrides(capture_history=False),
            delta_hint=delta,
        )
        for with_history, without in zip(
            full.detection.communities, slim.detection.communities
        ):
            assert without.history == ()
            assert len(with_history.history) > 0
            assert without.community == with_history.community
            assert without.walk_length == with_history.walk_length
            assert without.stop_reason == with_history.stop_reason
            assert without.delta == with_history.delta

    def test_session_honors_capture_history_default(self, ppm):
        instance, delta = ppm
        config = RunConfig(seeds=(0, 130), batch_size=2, capture_history=False)
        with DetectionSession(instance.graph, config=config, delta_hint=delta) as s:
            report = s.detect()
        assert all(c.history == () for c in report.detection.communities)

    def test_worker_payload_shrinks_without_histories(self, ppm):
        # The point of threading the flag into the shards: workers never
        # build the histories, so the pickled results crossing the process
        # boundary get strictly smaller.
        instance, delta = ppm
        base = RunConfig(
            seeds=(0, 40, 130, 200), batch_size=2, workers=2, executor="process"
        )
        full = detect(instance.graph, "batched", config=base, delta_hint=delta)
        slim = detect(
            instance.graph,
            "batched",
            config=base.with_overrides(capture_history=False),
            delta_hint=delta,
        )
        assert len(pickle.dumps(slim.detection)) < len(pickle.dumps(full.detection))
        for with_history, without in zip(
            full.detection.communities, slim.detection.communities
        ):
            assert without.community == with_history.community


# ----------------------------------------------------------------------
# One-call-at-a-time contract (PR 9)
# ----------------------------------------------------------------------
class TestSessionBusyGuard:
    def test_concurrent_call_raises_session_busy(self, ppm, monkeypatch):
        # Deterministic race: thread A's call is held inside the guarded
        # region (its prepared-context lookup blocks on an event), so the main
        # thread's second call must hit the busy guard — and releasing A
        # must still produce the exact one-shot payload.
        import threading

        from repro.exceptions import SessionBusyError

        instance, delta = ppm
        config = RunConfig(workers=1, executor="thread")
        session = DetectionSession(instance.graph, config=config, delta_hint=delta)
        entered = threading.Event()
        release = threading.Event()
        original = session._prepare

        def slow_prepare(*args):
            entered.set()
            assert release.wait(timeout=30)
            return original(*args)

        monkeypatch.setattr(session, "_prepare", slow_prepare)
        outcome = {}

        def first_caller():
            outcome["report"] = session.detect(seeds=(0,))

        thread = threading.Thread(target=first_caller)
        thread.start()
        try:
            assert entered.wait(timeout=30)
            with pytest.raises(SessionBusyError, match="one call at a time"):
                session.detect(seeds=(40,))
        finally:
            release.set()
            thread.join(timeout=60)
        one_shot = detect(
            instance.graph,
            "batched",
            config=config.with_overrides(seeds=(0,)),
            delta_hint=delta,
        )
        assert payload(outcome["report"]) == payload(one_shot)
        # The guard releases: the session serves again.
        session.detect(seeds=(40,))
        session.close()

    def test_parallel_backend_guarded_too(self, ppm, monkeypatch):
        import threading

        from repro.exceptions import SessionBusyError

        instance, delta = ppm
        session = DetectionSession(
            instance.graph, config=RunConfig(workers=1, executor="thread")
        )
        entered = threading.Event()
        release = threading.Event()
        original = session._prepare

        def slow_prepare(*args):
            entered.set()
            assert release.wait(timeout=30)
            return original(*args)

        monkeypatch.setattr(session, "_prepare", slow_prepare)
        thread = threading.Thread(
            target=lambda: session.detect(backend="parallel", num_communities=2)
        )
        thread.start()
        try:
            assert entered.wait(timeout=30)
            with pytest.raises(SessionBusyError):
                session.detect(backend="parallel", num_communities=2)
        finally:
            release.set()
            thread.join(timeout=60)
        session.close()


# ----------------------------------------------------------------------
# Lock-discipline regressions (PR 10 — found by the REP2xx analyzer)
# ----------------------------------------------------------------------
class TestConcurrencyRegressions:
    def test_close_waits_out_inflight_call(self, ppm, monkeypatch):
        # close() used to tear the caches down without taking the call
        # slot, racing an in-flight backend run (REP201 on the cache
        # fields).  It must now block until the call finishes — while the
        # cheap state reads (``closed``, ``repr``) stay non-blocking so
        # the facade's pre-dispatch check cannot deadlock behind it.
        import threading

        instance, delta = ppm
        config = RunConfig(workers=1, executor="thread")
        session = DetectionSession(instance.graph, config=config, delta_hint=delta)
        entered = threading.Event()
        release = threading.Event()
        original = session._prepare

        def slow_prepare(*args):
            entered.set()
            assert release.wait(timeout=30)
            return original(*args)

        monkeypatch.setattr(session, "_prepare", slow_prepare)
        outcome = {}

        def first_caller():
            outcome["report"] = session.detect(seeds=(0,))

        caller = threading.Thread(target=first_caller)
        caller.start()
        try:
            assert entered.wait(timeout=30)
            closer = threading.Thread(target=session.close)
            closer.start()
            closer.join(timeout=0.5)
            # close() is parked behind the in-flight call...
            assert closer.is_alive()
            # ...while the state surface answers immediately.
            assert not session.closed
            assert "open" in repr(session)
            assert session.calls == 1
        finally:
            release.set()
            caller.join(timeout=60)
        closer.join(timeout=60)
        assert not closer.is_alive()
        assert session.closed
        # The call that was in flight when close() arrived still completed.
        assert outcome["report"].detection.communities[0].seed == 0

    def test_observability_never_blocks_behind_a_call(self, ppm, monkeypatch):
        # ``calls`` / ``broadcasts`` live under their own lock: reading
        # them mid-call must return promptly, not wait for the run.
        import threading

        instance, delta = ppm
        config = RunConfig(workers=1, executor="thread")
        session = DetectionSession(instance.graph, config=config, delta_hint=delta)
        entered = threading.Event()
        release = threading.Event()
        original = session._prepare

        def slow_prepare(*args):
            entered.set()
            assert release.wait(timeout=30)
            return original(*args)

        monkeypatch.setattr(session, "_prepare", slow_prepare)
        thread = threading.Thread(target=lambda: session.detect(seeds=(0,)))
        thread.start()
        try:
            assert entered.wait(timeout=30)
            # The counter was bumped on admission; reading it cannot hang.
            assert session.calls == 1
            assert session.broadcasts == 0
            assert not session.closed
        finally:
            release.set()
            thread.join(timeout=60)
        session.close()


# ----------------------------------------------------------------------
# detect_batch request validation (PR 9)
# ----------------------------------------------------------------------
class TestDetectBatchValidation:
    def test_empty_seed_iterable_rejected(self, ppm):
        instance, delta = ppm
        with DetectionSession(instance.graph, delta_hint=delta) as session:
            with pytest.raises(BackendError, match="empty seed iterable"):
                session.detect_batch(())
            assert session.calls == 0

    def test_duplicate_seeds_rejected_with_the_duplicates_named(self, ppm):
        instance, delta = ppm
        with DetectionSession(instance.graph, delta_hint=delta) as session:
            with pytest.raises(
                BackendError, match=r"duplicated seed vertices: \[7, 40\]"
            ):
                session.detect_batch((40, 7, 3, 40, 7, 40))
            assert session.calls == 0

    def test_out_of_range_seed_rejected_before_pool_work(self, ppm):
        from repro.exceptions import AlgorithmError

        instance, delta = ppm
        config = RunConfig(workers=2, executor="process")
        with DetectionSession(instance.graph, config=config, delta_hint=delta) as session:
            with pytest.raises(AlgorithmError, match="is not a vertex of"):
                session.detect_batch((0, instance.graph.num_vertices))
            with pytest.raises(AlgorithmError, match="is not a vertex of"):
                session.detect_batch((-1,))
            # Rejected before any pool work: no broadcast, no call counted.
            assert session.broadcasts == 0
            assert session.calls == 0
