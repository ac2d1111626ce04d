"""Tests for the shared-memory process execution tier.

The contract under test (see ``src/repro/execution_process.py``): for the
same :class:`~repro.api.RunConfig` knobs, the ``"process"`` executor must
produce detections, cost totals and serialized reports **identical** to the
serial facade at every worker count — pool start-up, sharding and
shared-memory broadcast may only move the wall clock.
"""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from repro.api import RunConfig, RunReport, detect
from repro.exceptions import AlgorithmError, BackendError, ReproError
from repro.execution import resolve_executor
from repro.execution_process import ProcessGraphPool, SharedGraph
from repro.graphs import Graph, planted_partition_graph, ppm_expected_conductance

WORKER_COUNTS = (1, 2, 4)

#: The parts of a serialized report the run *computes* — required identical
#: across execution tiers.  The remaining keys (``config``, ``timings``,
#: ``metadata``) describe the run itself and naturally name the tier.
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
# Shared-memory graph broadcast
# ----------------------------------------------------------------------
class TestSharedGraph:
    def test_attach_reproduces_graph(self, two_cliques_graph):
        with SharedGraph(two_cliques_graph) as shared:
            attachment = shared.handle.attach()
            try:
                assert attachment.graph == two_cliques_graph
                assert attachment.graph.num_edges == two_cliques_graph.num_edges
                assert list(attachment.graph.neighbors(0)) == list(
                    two_cliques_graph.neighbors(0)
                )
            finally:
                attachment.close()

    def test_attached_arrays_alias_shared_segments(self, two_cliques_graph):
        with SharedGraph(two_cliques_graph) as shared:
            attachment = shared.handle.attach()
            try:
                indptr, indices, degrees = attachment.graph.csr_arrays()
                # No per-worker copy: the views live inside the segments.
                assert not indices.flags.owndata
                assert not indptr.flags.owndata
                assert np.array_equal(
                    indices, two_cliques_graph.csr_arrays()[1]
                )
            finally:
                attachment.close()

    def test_edgeless_graph_broadcasts(self):
        graph = Graph(5, [])
        with SharedGraph(graph) as shared:
            attachment = shared.handle.attach()
            try:
                assert attachment.graph == graph
            finally:
                attachment.close()

    def test_close_is_idempotent(self, triangle_graph):
        shared = SharedGraph(triangle_graph)
        shared.close()
        shared.close()
        with pytest.raises(FileNotFoundError):
            shared.handle.attach()

    def test_handle_is_picklable(self, triangle_graph):
        import pickle

        with SharedGraph(triangle_graph) as shared:
            clone = pickle.loads(pickle.dumps(shared.handle))
            attachment = clone.attach()
            try:
                assert attachment.graph == triangle_graph
            finally:
                attachment.close()


# ----------------------------------------------------------------------
# Executor resolution and config validation
# ----------------------------------------------------------------------
class TestExecutorKnob:
    def test_default_is_thread(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        assert resolve_executor(None) == "thread"
        assert resolve_executor("process") == "process"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert resolve_executor(None) == "process"
        # An explicit knob beats the environment.
        assert resolve_executor("thread") == "thread"

    def test_invalid_values_rejected(self, monkeypatch):
        with pytest.raises(ReproError):
            resolve_executor("gpu")
        monkeypatch.setenv("REPRO_EXECUTOR", "bogus")
        with pytest.raises(ReproError):
            resolve_executor(None)

    def test_run_config_validates_executor(self):
        assert RunConfig(executor="process").executor == "process"
        assert RunConfig().executor is None
        with pytest.raises(BackendError):
            RunConfig(executor="gpu")

    def test_run_config_round_trips_executor(self):
        config = RunConfig(executor="process", workers=2, capture_distributions=True)
        assert RunConfig.from_dict(config.to_dict()) == config


# ----------------------------------------------------------------------
# Identity against the serial facade
# ----------------------------------------------------------------------
class TestProcessIdentity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_batched_explicit_seeds_identical(self, ppm, workers):
        instance, delta = ppm
        seeds = tuple(range(0, 96, 12))
        serial = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seeds=seeds, batch_size=4),
        )
        process = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seeds=seeds, batch_size=4, executor="process", workers=workers),
        )
        assert process.detection == serial.detection
        assert process.phase_costs == serial.phase_costs
        assert process.total_cost == serial.total_cost
        # The full computed payload of the serialized report matches, not
        # just the detection sub-dict.
        assert payload(process) == payload(serial)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_batched_pool_mode_identical(self, ppm, workers):
        """Pool mode must reproduce the serial draw sequence exactly."""
        instance, delta = ppm
        serial = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seed=11, batch_size=4, max_seeds=6),
        )
        process = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(
                seed=11, batch_size=4, max_seeds=6, executor="process", workers=workers
            ),
        )
        assert process.detection == serial.detection
        assert [c.seed for c in process.detection.communities] == [
            c.seed for c in serial.detection.communities
        ]

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_parallel_identical(self, ppm, workers):
        instance, delta = ppm
        serial = detect(
            instance.graph,
            backend="parallel",
            delta_hint=delta,
            config=RunConfig(seed=5, num_communities=2),
        )
        process = detect(
            instance.graph,
            backend="parallel",
            delta_hint=delta,
            config=RunConfig(
                seed=5, num_communities=2, executor="process", workers=workers
            ),
        )
        assert process.detection == serial.detection
        assert payload(process) == payload(serial)

    def test_env_override_routes_through_process(self, ppm, monkeypatch):
        instance, delta = ppm
        serial = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seeds=(0, 3, 9)),
        )
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        process = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seeds=(0, 3, 9)),
        )
        assert process.metadata["executor"] == "process"
        assert process.detection == serial.detection

    def test_capture_distributions_identical(self, ppm):
        instance, delta = ppm
        seeds = (0, 17, 40)
        serial = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seeds=seeds, capture_distributions=True),
        )
        process = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(
                seeds=seeds,
                capture_distributions=True,
                executor="process",
                workers=2,
            ),
        )
        assert process.artifacts == serial.artifacts
        assert payload(process) == payload(serial)
        rows = serial.artifacts["final_distributions"]
        assert len(rows) == len(seeds)
        assert all(len(row) == instance.graph.num_vertices for row in rows)

    def test_edgeless_graph_falls_back_inline(self):
        graph = Graph(4, [])
        serial = detect(graph, backend="batched", config=RunConfig(seed=0))
        process = detect(
            graph, backend="batched", config=RunConfig(seed=0, executor="process")
        )
        assert process.detection == serial.detection
        assert process.metadata["worker_processes"] == 0


# ----------------------------------------------------------------------
# Report contents and serialization
# ----------------------------------------------------------------------
class TestProcessReport:
    def test_report_json_round_trip_is_exact(self, ppm):
        instance, delta = ppm
        report = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(
                seeds=(0, 9, 30),
                executor="process",
                workers=2,
                capture_distributions=True,
            ),
        )
        assert RunReport.from_json(report.to_json()) == report

    def test_timings_and_extras(self, ppm):
        instance, delta = ppm
        report = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seeds=tuple(range(8)), executor="process", workers=2),
        )
        assert report.metadata["executor"] == "process"
        assert report.metadata["worker_processes"] == 2
        assert report.metadata["process_tasks"] >= 2
        shard_keys = [key for key in report.timings if key.startswith("shard_")]
        assert shard_keys
        assert all(report.timings[key] >= 0.0 for key in shard_keys)

    def test_thread_reports_name_their_executor(self, ppm):
        instance, delta = ppm
        report = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seeds=(0,), executor="thread"),
        )
        assert report.metadata["executor"] == "thread"


# ----------------------------------------------------------------------
# Process-tier validation and the pool itself
# ----------------------------------------------------------------------
class TestProcessEntryPoints:
    def test_invalid_seed_rejected_before_pool_start(self, two_cliques_graph):
        with pytest.raises(AlgorithmError):
            detect(two_cliques_graph, "batched", executor="process", seeds=(99,), workers=2)

    def test_invalid_batch_size_rejected(self, two_cliques_graph):
        with pytest.raises(AlgorithmError):
            detect(two_cliques_graph, "batched", executor="process", batch_size=0)

    def test_parallel_validations(self, two_cliques_graph):
        with pytest.raises(AlgorithmError):
            detect(two_cliques_graph, "parallel", executor="process", num_communities=0)
        with pytest.raises(AlgorithmError):
            detect(
                two_cliques_graph,
                "parallel",
                executor="process",
                num_communities=2,
                overlap_merge_threshold=0.0,
            )

    def test_pool_reuse_across_batches(self, ppm):
        """One pool serves several batches without re-broadcasting the graph."""
        instance, delta = ppm
        from repro.core.batched import _detect_community_batch_impl
        from repro.core.prepared import Prepared

        with (
            SharedGraph(instance.graph) as shared,
            ProcessGraphPool(shared, workers=2) as pool,
        ):
            first, _ = pool.run_seeds([0, 9], None, delta, batch_size=2)
            second, _ = pool.run_seeds([30, 55, 70], None, delta, batch_size=2)
        prepared = Prepared(instance.graph, delta_hint=delta)
        expected_first, _ = _detect_community_batch_impl(prepared, [0, 9])
        expected_second, _ = _detect_community_batch_impl(prepared, [30, 55, 70])
        assert first == expected_first
        assert second == expected_second
        assert pool.tasks_issued >= 3


# ----------------------------------------------------------------------
# Segment lifetime: the finalizer guard and externally-owned broadcasts
# ----------------------------------------------------------------------
class TestSharedGraphFinalizer:
    def test_orphaned_owner_unlinks_segments(self, triangle_graph):
        """If the owner is garbage-collected without close(), no segment leaks."""
        shared = SharedGraph(triangle_graph)
        handle = shared.handle
        del shared
        gc.collect()
        with pytest.raises(FileNotFoundError):
            handle.attach()

    def test_close_after_finalizer_fired_is_safe(self, triangle_graph):
        """close() and the finalizer share one release path — never a double unlink."""
        shared = SharedGraph(triangle_graph)
        shared._finalizer()
        shared.close()
        shared.close()
        with pytest.raises(FileNotFoundError):
            shared.handle.attach()

    def test_pool_with_external_broadcast_does_not_unlink(self, ppm):
        """A pool built on a session-owned SharedGraph leaves its segments alive."""
        instance, delta = ppm
        with SharedGraph(instance.graph) as shared:
            pool = ProcessGraphPool(shared, workers=1)
            try:
                results, _ = pool.run_seeds([0], None, delta, batch_size=1)
                assert len(results) == 1
            finally:
                pool.close()
            # Workers are gone, but the broadcast must still be attachable.
            attachment = shared.handle.attach()
            attachment.close()
        with pytest.raises(FileNotFoundError):
            shared.handle.attach()


# ----------------------------------------------------------------------
# Accounting when a shard raises
# ----------------------------------------------------------------------
class TestPoolAccountingOnFailure:
    def test_poisoned_shard_leaves_pool_consistent_and_usable(self, ppm):
        instance, delta = ppm
        with (
            SharedGraph(instance.graph) as shared,
            ProcessGraphPool(shared, workers=2) as pool,
        ):
            baseline, _ = pool.run_seeds([0, 9], None, delta, batch_size=1)
            mark = pool.mark()
            assert pool.tasks_issued == mark
            with pytest.raises(ReproError):
                pool.run_seeds(
                    [17, instance.graph.num_vertices + 5],
                    None,
                    delta,
                    batch_size=1,
                )
            # Only completed shards are recorded — the counter and the
            # timing list stay in lockstep, with no placeholder entries.
            assert pool.tasks_issued == pool.mark()
            timings = pool.shard_timings(since=mark)
            aggregates = ("shard_seconds_total", "shard_seconds_max")
            per_shard = [key for key in timings if key not in aggregates]
            assert len(per_shard) == pool.mark() - mark
            # The pool survives the failure and keeps answering correctly.
            again, _ = pool.run_seeds([0, 9], None, delta, batch_size=1)
            assert again == baseline
