"""Tests for the pluggable CSR storage backends (``repro.graphs.storage``).

The contract: every backend (``dense`` in-RAM, ``shm`` shared-memory
segments, ``memmap`` disk-backed) holds the same three CSR arrays
bit-identically, pins them read-only, and routes through
``Graph.from_csr``/``csr_arrays`` as the universal interchange — so a graph
built under any ``REPRO_STORAGE`` behaves identically everywhere else in
the engine.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import RunConfig, detect
from repro.exceptions import GraphError
from repro.graphs import (
    Graph,
    planted_partition_graph,
    ppm_expected_conductance,
)
from repro.graphs.storage import (
    STORAGE_DENSE,
    STORAGE_ENV_VAR,
    STORAGE_MEMMAP,
    STORAGE_SHM,
    DenseStorage,
    MemmapStorage,
    SharedCSRStorage,
    resolve_storage,
    storage_from_arrays,
)

ALL_KINDS = (STORAGE_DENSE, STORAGE_SHM, STORAGE_MEMMAP)


@pytest.fixture(scope="module")
def ppm():
    n = 128
    p = 3 * math.log(n) ** 2 / n
    q = 1.0 / n
    instance = planted_partition_graph(n, 2, p, q, seed=7)
    delta = ppm_expected_conductance(n, 2, p, q)
    return instance, delta


def csr_of(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return graph.csr_arrays()


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
class TestResolveStorage:
    def test_default_is_dense(self, monkeypatch):
        monkeypatch.delenv(STORAGE_ENV_VAR, raising=False)
        assert resolve_storage(None) == STORAGE_DENSE

    def test_env_var_routes(self, monkeypatch):
        for kind in ALL_KINDS:
            monkeypatch.setenv(STORAGE_ENV_VAR, kind)
            assert resolve_storage(None) == kind

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(STORAGE_ENV_VAR, STORAGE_MEMMAP)
        assert resolve_storage(STORAGE_DENSE) == STORAGE_DENSE

    def test_unknown_kind_rejected(self):
        with pytest.raises(GraphError):
            resolve_storage("tape")

    def test_unknown_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv(STORAGE_ENV_VAR, "punchcards")
        with pytest.raises(GraphError):
            resolve_storage(None)

    def test_dispatcher_rejects_unknown_kind(self, triangle_graph):
        indptr, indices, degrees = triangle_graph.csr_arrays()
        with pytest.raises(GraphError):
            storage_from_arrays("tape", 3, indptr, indices, degrees)


# ----------------------------------------------------------------------
# Backend equivalence: same arrays on every tier
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_graph_construction_bit_identical(self, ppm, monkeypatch, kind):
        instance, _ = ppm
        reference = csr_of(instance.graph)
        monkeypatch.setenv(STORAGE_ENV_VAR, kind)
        rebuilt = Graph.from_edge_array(
            instance.graph.num_vertices, instance.graph.edge_array()
        )
        assert rebuilt.storage_kind == kind
        for built, expected in zip(csr_of(rebuilt), reference):
            assert np.array_equal(built, expected)
            assert built.dtype == np.int64

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_arrays_are_read_only(self, ppm, monkeypatch, kind):
        instance, _ = ppm
        monkeypatch.setenv(STORAGE_ENV_VAR, kind)
        graph = Graph.from_edge_array(
            instance.graph.num_vertices, instance.graph.edge_array()
        )
        for array in csr_of(graph):
            assert not array.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                array[0] = -1

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_detection_identical_across_tiers(self, ppm, monkeypatch, kind):
        instance, delta = ppm
        base = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seed=3, max_seeds=2),
        )
        monkeypatch.setenv(STORAGE_ENV_VAR, kind)
        rebuilt = Graph.from_edge_array(
            instance.graph.num_vertices, instance.graph.edge_array()
        )
        report = detect(
            rebuilt,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seed=3, max_seeds=2),
        )
        assert report.detection == base.detection
        assert report.to_dict()["total_cost"] == base.to_dict()["total_cost"]

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_empty_and_edgeless_graphs(self, monkeypatch, kind):
        monkeypatch.setenv(STORAGE_ENV_VAR, kind)
        for n in (0, 5):
            graph = Graph(n, [])
            assert graph.num_vertices == n
            assert graph.num_edges == 0
            indptr, indices, degrees = csr_of(graph)
            assert indptr.shape == (n + 1,)
            assert indices.shape == (0,)
            assert degrees.shape == (n,)


# ----------------------------------------------------------------------
# The individual backends
# ----------------------------------------------------------------------
class TestDenseStorage:
    def test_zero_copy_and_pinned(self, triangle_graph):
        indptr, indices, degrees = triangle_graph.csr_arrays()
        storage = DenseStorage(
            3, indptr.copy(), indices.copy(), degrees.copy()
        )
        arrays = storage.arrays()
        for array, expected in zip(arrays, (indptr, indices, degrees)):
            assert np.array_equal(array, expected)
            assert not array.flags.writeable
        assert storage.kind == STORAGE_DENSE


class TestSharedCSRStorage:
    def test_attach_round_trips(self, triangle_graph):
        with SharedCSRStorage.from_graph(triangle_graph) as storage:
            attachment = storage.handle.attach()
            try:
                assert attachment.graph == triangle_graph
            finally:
                attachment.close()

    def test_close_unlinks_segments(self, triangle_graph):
        storage = SharedCSRStorage.from_graph(triangle_graph)
        handle = storage.handle
        storage.close()
        storage.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            handle.attach()

    def test_graph_on_shm_storage_reports_kind(self, triangle_graph, monkeypatch):
        monkeypatch.setenv(STORAGE_ENV_VAR, STORAGE_SHM)
        graph = Graph.from_edge_array(3, triangle_graph.edge_array())
        assert graph.storage_kind == STORAGE_SHM


class TestMemmapStorage:
    def test_materialize_round_trips(self, triangle_graph, tmp_path):
        indptr, indices, degrees = triangle_graph.csr_arrays()
        storage = MemmapStorage.materialize(3, indptr, indices, degrees)
        try:
            for array, expected in zip(
                storage.arrays(), (indptr, indices, degrees)
            ):
                assert np.array_equal(array, expected)
                assert not array.flags.writeable
        finally:
            storage.close()

    def test_save_load_detect_round_trip_bit_identical(self, ppm, tmp_path):
        """ISSUE acceptance: memmap save -> load -> detect pins the exact
        detection of the in-RAM graph."""
        from repro.graphs import read_csr_graph, write_csr_graph

        instance, delta = ppm
        base = detect(
            instance.graph,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seed=5, max_seeds=3, capture_distributions=True),
        )
        path = tmp_path / "round_trip.csr"
        write_csr_graph(instance.graph, path)
        mapped = read_csr_graph(path)
        assert mapped.storage_kind == STORAGE_MEMMAP
        report = detect(
            mapped,
            backend="batched",
            delta_hint=delta,
            config=RunConfig(seed=5, max_seeds=3, capture_distributions=True),
        )
        assert report.detection == base.detection
        assert (
            report.artifacts["final_distributions"]
            == base.artifacts["final_distributions"]
        )

    def test_mapped_arrays_are_views_not_copies(self, ppm, tmp_path):
        from repro.graphs import read_csr_graph, write_csr_graph

        instance, _ = ppm
        path = tmp_path / "views.csr"
        write_csr_graph(instance.graph, path)
        mapped = read_csr_graph(path)
        _, indices, _ = mapped.csr_arrays()
        # The adjacency data is not duplicated into RAM-resident arrays.
        assert not indices.flags.owndata


# ----------------------------------------------------------------------
# Read-only CSR hardening: kernels must not write into graph storage
# ----------------------------------------------------------------------
class TestReadOnlyHardening:
    @pytest.mark.parametrize(
        "backend", ["scalar", "batched", "congest", "kmachine"]
    )
    def test_backends_run_on_pinned_arrays(self, ppm, backend):
        """Every backend completes on a graph whose CSR arrays are
        write-protected — any kernel writing into graph storage would raise."""
        instance, delta = ppm
        graph = instance.graph
        for array in graph.csr_arrays():
            assert not array.flags.writeable
        config = RunConfig(seed=3, max_seeds=1, workers=2, num_machines=2)
        report = detect(graph, backend=backend, delta_hint=delta, config=config)
        assert report.detection.num_communities >= 1
