"""The multi-core execution layer: pool helpers and worker-count invariance.

The contract under test is the one the threaded search is built on
(:mod:`repro.execution`): the ``workers`` knob may only move wall-clock
time, never a single output bit.  The batched mixing-set search, batched
detection and parallel detection are therefore asserted **bit-identical**
across ``workers ∈ {1, 2, 4}`` and against their scalar references (for the
search: the width-1 call the scalar backend makes, column by column).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import RunConfig, detect
from repro.core import (
    BatchedMixingSetSearch,
    block_ranges,
    parallel_map_blocks,
    resolve_workers,
)
from repro.exceptions import ReproError
from repro.execution import WORKERS_ENV_VAR
from repro.graphs import Graph, planted_partition_graph, ppm_expected_conductance
from repro.randomwalk import BatchedWalkDistribution
from repro.utils import log_size

WORKER_COUNTS = (1, 2, 4)


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


class TestParallelMapBlocks:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_results_in_block_order(self, workers):
        results = parallel_map_blocks(lambda start, stop: (start, stop), 10, workers)
        assert results == block_ranges(10, workers)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_disjoint_slice_writes_cover_everything(self, workers):
        out = np.zeros(97, dtype=np.int64)

        def fill(start, stop):
            out[start:stop] = np.arange(start, stop)

        parallel_map_blocks(fill, out.size, workers)
        assert np.array_equal(out, np.arange(out.size))

    def test_exceptions_propagate(self):
        def boom(start, stop):
            raise ValueError("block failed")

        with pytest.raises(ValueError, match="block failed"):
            parallel_map_blocks(boom, 8, 2)


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


class TestThreadedSearchInvariance:
    @pytest.mark.parametrize("stop_at_first_failure", [False, True])
    def test_equal_across_workers_and_to_scalar(self, search_case, stop_at_first_failure):
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
        for workers in WORKER_COUNTS:
            batched = BatchedMixingSetSearch(
                graph,
                initial_size=initial,
                stop_at_first_failure=stop_at_first_failure,
                workers=workers,
            )
            assert batched.largest_mixing_sets(distributions, 6) == reference, (
                f"workers={workers} diverged from the width-1 search"
            )

    def test_rejects_unknown_dtype(self, search_case):
        # The scan runs in float64 only: a precision argument is refused,
        # never silently ignored.
        graph, _ = search_case
        with pytest.raises(TypeError, match="dtype"):
            BatchedMixingSetSearch(graph, initial_size=4, dtype=np.float32)
        with pytest.raises(TypeError, match="dtype"):
            BatchedMixingSetSearch.from_parameters(graph, dtype=np.float32)


class TestThreadedDetectionInvariance:
    def test_batched_detection_matches_scalar_at_every_worker_count(
        self, ppm, scalar_community
    ):
        delta = ppm_expected_conductance(512, 4, 3 * math.log(512) ** 2 / 512, 1.0 / 512)
        seeds = (7, 130, 260, 400, 505)
        reference = [scalar_community(ppm.graph, s, delta_hint=delta) for s in seeds]
        for workers in WORKER_COUNTS:
            config = RunConfig(seeds=seeds, batch_size=len(seeds), workers=workers)
            report = detect(ppm.graph, "batched", config=config, delta_hint=delta)
            results = list(report.detection.communities)
            assert results == reference, f"workers={workers} changed a detection"

    def test_parallel_detection_identical_across_worker_counts(self, ppm):
        delta = ppm_expected_conductance(512, 4, 3 * math.log(512) ** 2 / 512, 1.0 / 512)
        detections = [
            detect(
                ppm.graph,
                "parallel",
                config=RunConfig(seed=3, num_communities=4, workers=workers),
                delta_hint=delta,
            ).detection
            for workers in WORKER_COUNTS
        ]
        assert detections[0] == detections[1] == detections[2]

    def test_env_override_reaches_the_kernels(self, ppm, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        search = BatchedMixingSetSearch(ppm.graph, initial_size=4)
        assert search.workers == 2
