"""Tests for graph serialization (edge lists, JSON bundles, binary CSR,
SNAP-style public datasets) and the format-sniffing ``load_graph_file``."""

from __future__ import annotations

import gzip
import json

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import (
    Graph,
    Partition,
    graph_from_dict,
    graph_to_dict,
    load_graph_file,
    read_csr_graph,
    read_edge_list,
    read_graph_json,
    read_snap_edge_list,
    write_csr_graph,
    write_edge_list,
    write_graph_json,
)
from repro.graphs.io import CSR_FORMAT_VERSION, CSR_MAGIC, read_csr_layout
from repro.graphs.storage import STORAGE_DENSE, STORAGE_MEMMAP, STORAGE_SHM


class TestEdgeList:
    def test_round_trip(self, two_cliques_graph, tmp_path):
        path = tmp_path / "graph.edges"
        write_edge_list(two_cliques_graph, path)
        loaded = read_edge_list(path)
        assert loaded == two_cliques_graph

    def test_isolated_vertices_preserved_via_header(self, tmp_path):
        graph = Graph(5, [(0, 1)])
        path = tmp_path / "graph.edges"
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.num_vertices == 5

    def test_read_without_header_infers_size(self, tmp_path):
        path = tmp_path / "plain.edges"
        path.write_text("0 1\n2 3\n# a comment\n\n", encoding="utf-8")
        loaded = read_edge_list(path)
        assert loaded.num_vertices == 4
        assert loaded.num_edges == 2

    def test_explicit_vertex_count_override(self, tmp_path):
        path = tmp_path / "plain.edges"
        path.write_text("0 1\n", encoding="utf-8")
        loaded = read_edge_list(path, num_vertices=10)
        assert loaded.num_vertices == 10

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0\n", encoding="utf-8")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_non_integer_token_raises_graph_error(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("0 x\n", encoding="utf-8")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "weighted.edges"
        path.write_text("0 1 7\n1 2 9\n", encoding="utf-8")
        loaded = read_edge_list(path)
        assert loaded.num_vertices == 3
        assert loaded.num_edges == 2

    def test_indented_header_still_recognised(self, tmp_path):
        # The per-line reader stripped before matching, so an indented
        # header must keep working (regression: the first regex rewrite
        # anchored at column 0 and silently dropped the vertex count).
        path = tmp_path / "indented.edges"
        path.write_text("  # vertices: 500\n0 1\n", encoding="utf-8")
        loaded = read_edge_list(path)
        assert loaded.num_vertices == 500

    def test_last_header_wins(self, tmp_path):
        path = tmp_path / "two_headers.edges"
        path.write_text("# vertices: 5\n0 1\n# vertices: 9\n", encoding="utf-8")
        assert read_edge_list(path).num_vertices == 9

    def test_malformed_header_raises(self, tmp_path):
        path = tmp_path / "bad_header.edges"
        path.write_text("# vertices: 5x\n0 1\n", encoding="utf-8")
        with pytest.raises(GraphError):
            read_edge_list(path)

    def test_comment_only_file_is_empty(self, tmp_path):
        path = tmp_path / "comments.edges"
        path.write_text("# nothing here\n\n# still nothing\n", encoding="utf-8")
        loaded = read_edge_list(path)
        assert loaded.num_vertices == 0
        assert loaded.num_edges == 0

    @pytest.mark.slow
    def test_million_edge_round_trip(self, tmp_path):
        """The array-path reader/writer must survive (and stay fast at) 1M edges."""
        import time

        import numpy as np

        n = 200_000
        rng = np.random.default_rng(0)
        edges = rng.integers(0, n, size=(1_000_000, 2), dtype=np.int64)
        edges = edges[edges[:, 0] != edges[:, 1]]
        graph = Graph.from_edge_array(n, edges)

        path = tmp_path / "million.edges"
        start = time.perf_counter()
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        elapsed = time.perf_counter() - start
        assert loaded == graph
        # Very generous ceiling: the vectorized round trip runs in ~1.5s;
        # the former per-edge tuple loops took over a minute at this size.
        assert elapsed < 30.0, f"1M-edge edge-list round trip took {elapsed:.1f}s"

        start = time.perf_counter()
        document = graph_to_dict(graph)
        rebuilt, _, _ = graph_from_dict(document)
        elapsed = time.perf_counter() - start
        assert rebuilt == graph
        assert elapsed < 30.0, f"1M-edge dict round trip took {elapsed:.1f}s"


class TestJsonBundle:
    def test_dict_round_trip_with_partition_and_metadata(self, two_cliques_graph):
        partition = Partition.from_labels([0] * 5 + [1] * 5)
        document = graph_to_dict(two_cliques_graph, partition, metadata={"p": 0.5})
        graph, loaded_partition, metadata = graph_from_dict(document)
        assert graph == two_cliques_graph
        assert loaded_partition == partition
        assert metadata == {"p": 0.5}

    def test_file_round_trip(self, two_cliques_graph, tmp_path):
        path = tmp_path / "bundle.json"
        write_graph_json(path, two_cliques_graph)
        graph, partition, metadata = read_graph_json(path)
        assert graph == two_cliques_graph
        assert partition is None
        assert metadata == {}

    def test_partition_size_mismatch_rejected(self, two_cliques_graph):
        partition = Partition.from_labels([0, 1])
        with pytest.raises(GraphError):
            graph_to_dict(two_cliques_graph, partition)

    def test_malformed_document_rejected(self):
        with pytest.raises(GraphError):
            graph_from_dict({"edges": [[0, 1]]})

    def test_partition_length_mismatch_rejected(self):
        document = {"num_vertices": 3, "edges": [[0, 1]], "partition": [0, 1]}
        with pytest.raises(GraphError):
            graph_from_dict(document)


def _csr_header(header: dict) -> bytes:
    """A ``.csr`` header-length field plus its JSON header (no arrays)."""
    encoded = json.dumps(header).encode("ascii")
    return len(encoded).to_bytes(8, "little") + encoded


class TestCsrBinary:
    def test_round_trip_bit_identical(self, two_cliques_graph, tmp_path):
        path = tmp_path / "graph.csr"
        write_csr_graph(two_cliques_graph, path)
        loaded = read_csr_graph(path)
        assert loaded == two_cliques_graph
        for mapped, expected in zip(
            loaded.csr_arrays(), two_cliques_graph.csr_arrays()
        ):
            assert np.array_equal(mapped, expected)
            assert mapped.dtype == np.int64

    def test_default_read_is_memmap(self, two_cliques_graph, tmp_path):
        path = tmp_path / "graph.csr"
        write_csr_graph(two_cliques_graph, path)
        assert read_csr_graph(path).storage_kind == STORAGE_MEMMAP

    @pytest.mark.parametrize("kind", (STORAGE_DENSE, STORAGE_SHM))
    def test_loading_into_ram_tiers(self, two_cliques_graph, tmp_path, kind):
        path = tmp_path / "graph.csr"
        write_csr_graph(two_cliques_graph, path)
        loaded = read_csr_graph(path, storage=kind)
        assert loaded == two_cliques_graph
        assert loaded.storage_kind == kind

    def test_empty_graph_round_trips(self, tmp_path):
        path = tmp_path / "empty.csr"
        write_csr_graph(Graph(4, []), path)
        loaded = read_csr_graph(path)
        assert loaded.num_vertices == 4
        assert loaded.num_edges == 0

    def test_layout_offsets_are_8_byte_aligned(self, two_cliques_graph, tmp_path):
        path = tmp_path / "graph.csr"
        write_csr_graph(two_cliques_graph, path)
        layout = read_csr_layout(path)
        assert layout.num_vertices == two_cliques_graph.num_vertices
        assert layout.num_arcs == 2 * two_cliques_graph.num_edges
        for offset in (
            layout.indptr_offset,
            layout.indices_offset,
            layout.degrees_offset,
        ):
            assert offset % 8 == 0
        assert layout.indices_offset - layout.indptr_offset == 8 * (
            layout.num_vertices + 1
        )

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.csr"
        path.write_bytes(b"NOTACSR!" + b"\x00" * 64)
        with pytest.raises(GraphError, match="not a"):
            read_csr_graph(path)

    def test_unsupported_version_rejected(self, two_cliques_graph, tmp_path):
        path = tmp_path / "future.csr"
        write_csr_graph(two_cliques_graph, path)
        raw = bytearray(path.read_bytes())
        header_bytes = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16 : 16 + header_bytes])
        header["version"] = 99
        reencoded = json.dumps(header).encode("ascii")
        reencoded += b" " * (header_bytes - len(reencoded))
        raw[16 : 16 + header_bytes] = reencoded
        path.write_bytes(bytes(raw))
        with pytest.raises(GraphError, match="version"):
            read_csr_graph(path)

    def test_truncated_file_rejected(self, two_cliques_graph, tmp_path):
        path = tmp_path / "cut.csr"
        write_csr_graph(two_cliques_graph, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(GraphError, match="truncated"):
            read_csr_graph(path)

    def test_truncated_preamble_rejected(self, tmp_path):
        path = tmp_path / "stub.csr"
        path.write_bytes(CSR_MAGIC[:4])
        with pytest.raises(GraphError):
            read_csr_graph(path)

    @pytest.mark.parametrize(
        "reader", (read_csr_layout, load_graph_file), ids=("layout", "load")
    )
    @pytest.mark.parametrize(
        "body",
        (
            b"\xff" * 8 + b"{}",
            (2**62).to_bytes(8, "little") + b"{}",
            _csr_header(
                {
                    "version": CSR_FORMAT_VERSION,
                    "num_vertices": float("inf"),
                    "num_arcs": 0,
                    "dtype": "<i8",
                }
            ),
        ),
        ids=("length-ff", "length-2**62", "vertices-infinity"),
    )
    def test_corrupt_header_raises_graph_error(self, tmp_path, reader, body):
        path = tmp_path / "corrupt.csr"
        path.write_bytes(CSR_MAGIC + body)
        with pytest.raises(GraphError):
            reader(path)


class TestSnapEdgeList:
    def test_comments_and_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text(
            "# Directed graph: something\n"
            "# FromNodeId\tToNodeId\n"
            "0\t1\t1337\n"
            "1\t2\t42\n",
            encoding="utf-8",
        )
        snap = read_snap_edge_list(path)
        assert snap.graph.num_vertices == 3
        assert snap.graph.num_edges == 2
        assert snap.num_self_loops == 0

    def test_arbitrary_ids_remapped_in_ascending_order(self, tmp_path):
        path = tmp_path / "sparse_ids.txt"
        path.write_text("900 7\n7 31\n900 31\n", encoding="utf-8")
        snap = read_snap_edge_list(path)
        assert list(snap.vertex_ids) == [7, 31, 900]
        assert snap.graph.num_vertices == 3
        # 7<->31, 7<->900, 31<->900 under the remap: a triangle.
        assert snap.graph.num_edges == 3
        assert snap.graph.has_edge(0, 2)

    def test_self_loops_dropped_and_counted(self, tmp_path):
        path = tmp_path / "loops.txt"
        path.write_text("0 0\n0 1\n1 1\n", encoding="utf-8")
        snap = read_snap_edge_list(path)
        assert snap.num_self_loops == 2
        assert snap.graph.num_edges == 1

    def test_loop_only_vertex_kept_as_isolated(self, tmp_path):
        path = tmp_path / "loop_only.txt"
        path.write_text("5 5\n0 1\n", encoding="utf-8")
        snap = read_snap_edge_list(path)
        # Id 5 appears only in a dropped self loop but stays a vertex.
        assert snap.graph.num_vertices == 3
        assert list(snap.vertex_ids) == [0, 1, 5]
        assert snap.graph.degree(2) == 0

    def test_duplicate_edges_collapse(self, tmp_path):
        path = tmp_path / "dupes.txt"
        path.write_text("0 1\n1 0\n0 1\n", encoding="utf-8")
        snap = read_snap_edge_list(path)
        assert snap.graph.num_edges == 1

    def test_gzip_detected_by_content(self, tmp_path):
        path = tmp_path / "snap.data"  # deliberately not .gz
        path.write_bytes(gzip.compress(b"# comment\n0 1\n1 2\n"))
        snap = read_snap_edge_list(path)
        assert snap.graph.num_edges == 2

    def test_comment_only_file_is_empty(self, tmp_path):
        path = tmp_path / "nothing.txt"
        path.write_text("# no data\n\n", encoding="utf-8")
        snap = read_snap_edge_list(path)
        assert snap.graph.num_vertices == 0
        assert snap.num_self_loops == 0

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 x\n", encoding="utf-8")
        with pytest.raises(GraphError):
            read_snap_edge_list(path)


class TestLoadGraphFile:
    def test_dispatches_csr(self, two_cliques_graph, tmp_path):
        path = tmp_path / "graph.csr"
        write_csr_graph(two_cliques_graph, path)
        graph, partition, info = load_graph_file(path)
        assert graph == two_cliques_graph
        assert partition is None
        assert info["format"] == "csr"
        assert info["storage"] == STORAGE_MEMMAP

    def test_csr_storage_override(self, two_cliques_graph, tmp_path):
        path = tmp_path / "graph.csr"
        write_csr_graph(two_cliques_graph, path)
        graph, _, info = load_graph_file(path, storage=STORAGE_DENSE)
        assert graph.storage_kind == STORAGE_DENSE
        assert info["storage"] == STORAGE_DENSE

    def test_dispatches_json_with_partition(self, two_cliques_graph, tmp_path):
        truth = Partition.from_labels([0] * 5 + [1] * 5)
        path = tmp_path / "bundle.json"
        write_graph_json(path, two_cliques_graph, truth, metadata={"p": 0.5})
        graph, partition, info = load_graph_file(path)
        assert graph == two_cliques_graph
        assert partition == truth
        assert info["format"] == "json"
        assert info["metadata"] == {"p": 0.5}

    def test_dispatches_headered_edge_list(self, tmp_path):
        path = tmp_path / "graph.edges"
        write_edge_list(Graph(5, [(0, 1)]), path)
        graph, partition, info = load_graph_file(path)
        assert graph.num_vertices == 5
        assert partition is None
        assert info["format"] == "edge-list"

    def test_dispatches_snap_for_headerless_text(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# SNAP comment\n10 20\n20 30\n", encoding="utf-8")
        graph, partition, info = load_graph_file(path)
        assert graph.num_edges == 2
        assert partition is None
        assert info["format"] == "snap"
        assert info["num_self_loops"] == 0
        assert info["num_source_ids"] == 3

    def test_dispatches_gzipped_snap(self, tmp_path):
        path = tmp_path / "snap.txt.gz"
        path.write_bytes(gzip.compress(b"0 1\n"))
        graph, _, info = load_graph_file(path)
        assert graph.num_edges == 1
        assert info["format"] == "snap"

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_graph_file(tmp_path / "missing.csr")


#: Malformed inputs that used to escape ``load_graph_file`` as raw exceptions.
MALFORMED_FILES = {
    "json-syntax": ("bundle.json", b'{"num_vertices": 3, "edges": [[0, 1]'),
    "json-non-utf8": ("bundle.json", b'{"num_vertices": 3, "edges": [], "x": "\xff"}'),
    "edge-list-non-utf8": ("graph.edges", b"# vertices: 3\n0 1\n\xff\xfe 2\n"),
    "gzip-truncated": ("snap.txt.gz", gzip.compress(b"0 1\n1 2\n" * 64)[:-12]),
    "json-metadata-not-object": (
        "bundle.json",
        json.dumps({"num_vertices": 2, "edges": [[0, 1]], "metadata": 5}).encode(),
    ),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_load_raises_graph_error(self, tmp_path, case):
        name, payload = MALFORMED_FILES[case]
        path = tmp_path / name
        path.write_bytes(payload)
        with pytest.raises(GraphError):
            load_graph_file(path)

    @pytest.mark.parametrize("case", ["gzip-truncated", "json-syntax"])
    def test_cli_exits_2_with_one_line(self, tmp_path, capsys, case):
        from repro.cli import main

        name, payload = MALFORMED_FILES[case]
        path = tmp_path / name
        path.write_bytes(payload)
        assert main(["detect", "--graph-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro detect: ")
        assert err.count("\n") == 1
