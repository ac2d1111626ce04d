"""The execution knobs, and the batched paths against their scalar references.

:mod:`repro.execution` resolves the worker count and shards seed rounds
for the process pool.  On the thread tier ``workers`` sizes nothing: the
search and the walk run on the calling thread, so the knob must change no
output bit and start no thread.  The batched mixing-set search and batched
detection are asserted **bit-identical** to their scalar references (for
the search: the width-1 call the scalar backend makes, column by column).
"""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from repro.api import RunConfig, detect
from repro.core import BatchedMixingSetSearch, CDRWParameters
from repro.exceptions import BackendError, ReproError
from repro.execution import WORKERS_ENV_VAR, block_ranges, resolve_workers
from repro.graphs import Graph, planted_partition_graph, ppm_expected_conductance
from repro.randomwalk import BatchedWalkDistribution
from repro.utils import log_size


@pytest.fixture(scope="module")
def ppm():
    n = 512
    p = 3 * math.log(n) ** 2 / n
    return planted_partition_graph(n, 4, p, 1.0 / n, seed=11)


@pytest.fixture(scope="module")
def search_case():
    """A noisy graph plus a 33-column distribution matrix (non-multiple of 2/4)."""
    rng = np.random.default_rng(5)
    n = 1500
    edges = rng.integers(0, n, size=(8000, 2), dtype=np.int64)
    graph = Graph.from_edge_array(n, edges[edges[:, 0] != edges[:, 1]])
    walk = BatchedWalkDistribution(graph, rng.integers(0, n, size=33).tolist())
    walk.step(6)
    return graph, np.array(walk.probabilities())


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert resolve_workers(None) == 1

    def test_explicit_count_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert resolve_workers(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        assert resolve_workers(None) == 2

    def test_zero_means_all_cores(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_invalid_values_raise(self, monkeypatch):
        with pytest.raises(ReproError):
            resolve_workers(-1)
        monkeypatch.setenv(WORKERS_ENV_VAR, "not-a-number")
        with pytest.raises(ReproError):
            resolve_workers(None)


class TestBlockRanges:
    def test_exact_partition_in_order(self):
        for count in (0, 1, 5, 64, 65):
            for blocks in (1, 2, 4, 100):
                ranges = block_ranges(count, blocks)
                flattened = [i for start, stop in ranges for i in range(start, stop)]
                assert flattened == list(range(count))
                assert len(ranges) <= blocks
                if ranges:
                    sizes = [stop - start for start, stop in ranges]
                    assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(ReproError):
            block_ranges(-1, 2)
        with pytest.raises(ReproError):
            block_ranges(4, 0)


class TestVectorizedSourceValidation:
    def test_empty_sources_message_unchanged(self, ppm):
        with pytest.raises(Exception, match="at least one source vertex"):
            BatchedWalkDistribution(ppm.graph, [])

    def test_first_offending_source_reported(self, ppm):
        with pytest.raises(Exception, match="source 9999 is not a vertex"):
            BatchedWalkDistribution(ppm.graph, [3, 9999, -1])
        with pytest.raises(Exception, match="source -1 is not a vertex"):
            BatchedWalkDistribution(ppm.graph, [3, -1, 9999])

    def test_large_batches_accept_arrays(self, ppm):
        sources = np.arange(ppm.graph.num_vertices, dtype=np.int64)
        walk = BatchedWalkDistribution(ppm.graph, sources)
        assert walk.num_walks == ppm.graph.num_vertices
        assert walk.sources[:3] == (0, 1, 2)


class TestBatchedSearchInvariance:
    @pytest.mark.parametrize("stop_at_first_failure", [False, True])
    def test_equal_to_scalar(self, search_case, stop_at_first_failure):
        graph, distributions = search_case
        initial = log_size(graph.num_vertices)
        # The scalar backend's call: one serial width-1 search per column.
        scalar = BatchedMixingSetSearch(
            graph, initial_size=initial, stop_at_first_failure=stop_at_first_failure
        )
        reference = [
            scalar.largest_mixing_sets(distributions[:, j : j + 1], 6)[0]
            for j in range(distributions.shape[1])
        ]
        batched = BatchedMixingSetSearch(
            graph, initial_size=initial, stop_at_first_failure=stop_at_first_failure
        )
        assert batched.largest_mixing_sets(distributions, 6) == reference

    def test_rejects_unknown_dtype(self, search_case):
        # The scan runs in float64 only: a precision argument is refused,
        # never silently ignored.
        graph, _ = search_case
        with pytest.raises(TypeError, match="dtype"):
            BatchedMixingSetSearch(graph, initial_size=4, dtype=np.float32)
        with pytest.raises(TypeError, match="dtype"):
            BatchedMixingSetSearch.from_parameters(graph, dtype=np.float32)

    def test_workers_is_not_a_search_argument(self, search_case):
        # The search runs on the calling thread: a thread count is refused,
        # never silently ignored.
        graph, _ = search_case
        with pytest.raises(TypeError, match="workers"):
            BatchedMixingSetSearch(graph, initial_size=4, workers=2)
        with pytest.raises(TypeError, match="workers"):
            BatchedMixingSetSearch.from_parameters(graph, CDRWParameters(), 4, workers=2)


class TestBatchedDetectionInvariance:
    def test_batched_detection_matches_scalar(self, ppm, scalar_community):
        delta = ppm_expected_conductance(512, 4, 3 * math.log(512) ** 2 / 512, 1.0 / 512)
        seeds = (7, 130, 260, 400, 505)
        reference = [scalar_community(ppm.graph, s, delta_hint=delta) for s in seeds]
        config = RunConfig(seeds=seeds, batch_size=len(seeds))
        report = detect(ppm.graph, "batched", config=config, delta_hint=delta)
        assert list(report.detection.communities) == reference

    def test_bad_worker_counts_fail_on_the_thread_tier(self, ppm, monkeypatch):
        config = RunConfig(seeds=(7,), executor="thread")
        with pytest.raises(BackendError, match="workers must be >= 0"):
            config.with_overrides(workers=-1)
        monkeypatch.setenv(WORKERS_ENV_VAR, "not-a-number")
        with pytest.raises(ReproError, match=WORKERS_ENV_VAR):
            detect(ppm.graph, "batched", config=config)

    @pytest.mark.parametrize(
        "backend, config",
        [
            ("batched", RunConfig(seeds=(7, 130, 260, 400, 505), batch_size=5)),
            ("parallel", RunConfig(seed=3, num_communities=4)),
        ],
        ids=["batched", "parallel"],
    )
    def test_workers_is_inert_on_the_thread_tier(self, ppm, backend, config, monkeypatch):
        delta = ppm_expected_conductance(512, 4, 3 * math.log(512) ** 2 / 512, 1.0 / 512)
        serial = config.with_overrides(executor="thread", workers=1)
        reference = detect(ppm.graph, backend, config=serial, delta_hint=delta)
        # Every lane must be scanned on the calling thread.
        scanning_threads = set()
        scan_lane = BatchedMixingSetSearch._scan_lane

        def spy(search, *args):
            scanning_threads.add(threading.get_ident())
            return scan_lane(search, *args)

        monkeypatch.setattr(BatchedMixingSetSearch, "_scan_lane", spy)
        threads = threading.active_count()
        report = detect(
            ppm.graph, backend, config=serial.with_overrides(workers=4), delta_hint=delta
        )
        assert threading.active_count() == threads
        assert scanning_threads == {threading.get_ident()}
        computed, expected = report.to_dict(), reference.to_dict()
        for described in ("config", "timings"):
            del computed[described], expected[described]
        assert computed == expected
