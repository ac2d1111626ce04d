"""Reading and writing graphs and partitions.

Four interchange formats are supported:

* a plain **edge list** text format (one ``u v`` pair per line, ``#`` comments,
  with an optional header recording the vertex count so isolated vertices are
  preserved),
* a **JSON** document bundling a graph with an optional ground-truth partition
  and generator metadata, which is what the experiment harness uses to cache
  generated PPM instances between benchmark runs,
* a **SNAP-style edge list** (:func:`read_snap_edge_list`): the de-facto
  public-dataset format — ``#`` comment lines, whitespace-separated endpoint
  columns, arbitrary (non-contiguous) vertex ids, optionally gzipped.  Ids
  are remapped to ``0..n-1`` and self loops dropped, feeding the vectorized
  :meth:`Graph.from_edge_array` constructor, and
* a **binary CSR** file (:func:`write_csr_graph` / :func:`read_csr_graph`):
  the adjacency arrays verbatim, 8-byte aligned, so
  :class:`~repro.graphs.storage.MemmapStorage` can map them back read-only
  with zero parsing — the disk tier of the storage-backend abstraction.

:func:`load_graph_file` sniffs a path and dispatches to the right reader;
``repro detect --graph-file`` is a thin wrapper over it.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from ..exceptions import GraphError
from .graph import Graph
from .partition import Partition
from .storage import STORAGE_MEMMAP, MemmapStorage, resolve_storage, storage_from_arrays

__all__ = [
    "write_edge_list",
    "read_edge_list",
    "graph_to_dict",
    "graph_from_dict",
    "write_graph_json",
    "read_graph_json",
    "write_csr_graph",
    "write_csr_arrays",
    "read_csr_graph",
    "read_csr_layout",
    "CSRFileLayout",
    "read_snap_edge_list",
    "SnapEdgeList",
    "load_graph_file",
]

_HEADER_PREFIX = "# vertices:"


#: Matches the vertex-count header line anywhere in the file — like every
#: comment it may be indented (the old per-line reader stripped before
#: matching, and ``loadtxt`` likewise skips indented ``#`` lines).  The
#: value is captured loosely and validated separately so a malformed header
#: still errors instead of being silently read as a plain comment.
_HEADER_PATTERN = re.compile(
    rf"^[ \t]*{re.escape(_HEADER_PREFIX)}(.*)$", flags=re.MULTILINE
)

#: Matches the first line that is neither blank nor a ``#`` comment — one
#: C-speed scan deciding whether the file holds any edges at all (``loadtxt``
#: warns on empty input instead of returning an empty array).
_DATA_LINE_PATTERN = re.compile(r"^[ \t]*[^#\s]", flags=re.MULTILINE)


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write ``graph`` to ``path`` as an edge list with a vertex-count header.

    The body is rendered from the bulk :meth:`~repro.graphs.graph.Graph.edge_array`
    (one C-level ``tolist`` instead of the per-edge CSR-chunk generator).
    """
    path = Path(path)
    lines = [f"{_HEADER_PREFIX} {graph.num_vertices}"]
    lines.extend(f"{u} {v}" for u, v in graph.edge_array().tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_edge_list(path: str | Path, num_vertices: int | None = None) -> Graph:
    """Read an edge list written by :func:`write_edge_list` (or any ``u v`` file).

    ``num_vertices`` overrides the header / inferred vertex count; when absent
    and no header is present, the count is ``max vertex id + 1``.  Blank
    lines and ``#`` comments are skipped; columns beyond the first two are
    ignored.  Parsing is one :func:`numpy.loadtxt` pass straight into the
    ``(m, 2)`` array the vectorized :meth:`Graph.from_edge_array`
    constructor consumes — no per-edge Python tuples (the former loop
    dominated million-edge loads; see ``tests/test_graphs_io.py``'s
    slow-marked round trip).
    """
    path = Path(path)
    text = _read_utf8(path)
    header_vertices: int | None = None
    headers = _HEADER_PATTERN.findall(text)
    if headers:
        # Multiple headers: the last one wins, as in the per-line reader.
        try:
            header_vertices = int(headers[-1].strip())
        except ValueError:
            raise GraphError(
                f"{path}: malformed vertex-count header: "
                f"{(_HEADER_PREFIX + headers[-1]).strip()!r}"
            ) from None

    if _DATA_LINE_PATTERN.search(text) is None:
        edge_array = np.empty((0, 2), dtype=np.int64)
    else:
        try:
            edge_array = np.loadtxt(
                io.StringIO(text),
                dtype=np.int64,
                comments="#",
                usecols=(0, 1),
                ndmin=2,
            )
        except (ValueError, IndexError) as error:
            raise GraphError(f"{path}: malformed edge list: {error}") from None

    if num_vertices is None:
        if header_vertices is not None:
            num_vertices = header_vertices
        elif edge_array.size:
            num_vertices = int(edge_array.max()) + 1
        else:
            num_vertices = 0
    return Graph.from_edge_array(num_vertices, edge_array)


def graph_to_dict(
    graph: Graph,
    partition: Partition | None = None,
    metadata: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Serialize a graph (and optional partition / metadata) to plain Python types."""
    document: dict[str, Any] = {
        "num_vertices": graph.num_vertices,
        # Bulk array serialization: edge_array().tolist() emits the same
        # [[u, v], ...] pairs the former per-edge loop built, in one C pass.
        "edges": graph.edge_array().tolist(),
    }
    if partition is not None:
        if partition.num_vertices != graph.num_vertices:
            raise GraphError(
                "partition covers a different vertex count than the graph "
                f"({partition.num_vertices} vs {graph.num_vertices})"
            )
        document["partition"] = partition.labels.tolist()
    if metadata is not None:
        document["metadata"] = metadata
    return document


def graph_from_dict(document: dict[str, Any]) -> tuple[Graph, Partition | None, dict[str, Any]]:
    """Inverse of :func:`graph_to_dict`; returns ``(graph, partition, metadata)``."""
    try:
        num_vertices = int(document["num_vertices"])
        # One bulk conversion onto the vectorized constructor path; the
        # int64 cast truncates floats exactly like the former per-pair
        # ``int()`` loop did.
        edge_array = np.asarray(document["edges"], dtype=np.int64)
    except (KeyError, TypeError, ValueError) as error:
        raise GraphError(f"malformed graph document: {error}") from error
    if edge_array.size == 0:
        edge_array = np.empty((0, 2), dtype=np.int64)
    graph = Graph(num_vertices, edge_array)
    partition = None
    if "partition" in document and document["partition"] is not None:
        labels = np.asarray(document["partition"], dtype=np.int64)
        if len(labels) != num_vertices:
            raise GraphError(
                f"partition length {len(labels)} does not match vertex count {num_vertices}"
            )
        partition = Partition.from_labels(labels)
    try:
        metadata = dict(document.get("metadata", {}))
    except (TypeError, ValueError) as error:
        raise GraphError(f"malformed graph document metadata: {error}") from error
    return graph, partition, metadata


def write_graph_json(
    path: str | Path,
    graph: Graph,
    partition: Partition | None = None,
    metadata: dict[str, Any] | None = None,
) -> None:
    """Write a graph bundle to a JSON file."""
    document = graph_to_dict(graph, partition=partition, metadata=metadata)
    Path(path).write_text(json.dumps(document), encoding="utf-8")


def read_graph_json(path: str | Path) -> tuple[Graph, Partition | None, dict[str, Any]]:
    """Read a graph bundle written by :func:`write_graph_json`."""
    try:
        document = json.loads(_read_utf8(path))
    except json.JSONDecodeError as error:
        raise GraphError(f"{path}: malformed JSON: {error}") from error
    return graph_from_dict(document)


# ----------------------------------------------------------------------
# Binary CSR format (the memmap storage backend's on-disk form)
# ----------------------------------------------------------------------
#: File magic of the binary CSR format; also what :func:`load_graph_file`
#: sniffs to recognize the format regardless of the file's extension.
CSR_MAGIC = b"REPROCSR"

#: Format version written into (and required from) the JSON header.
CSR_FORMAT_VERSION = 1

#: Size of the fixed preamble: the 8-byte magic plus the uint64 header length.
_CSR_PREAMBLE_BYTES = 16


@dataclass(frozen=True)
class CSRFileLayout:
    """Where each CSR array lives inside a ``.csr`` file.

    Offsets are absolute byte positions; all three arrays are little-endian
    int64 (``<i8``) and 8-byte aligned, so :class:`numpy.memmap` windows
    over them need no conversion.
    """

    num_vertices: int
    num_arcs: int
    indptr_offset: int
    indices_offset: int
    degrees_offset: int


def write_csr_arrays(
    path: str | Path,
    num_vertices: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    degrees: np.ndarray,
) -> None:
    """Write raw CSR arrays to ``path`` in the binary ``.csr`` format.

    Layout: the 8-byte magic, a little-endian uint64 holding the (padded)
    JSON header length, the JSON header (space-padded to an 8-byte
    boundary), then ``indptr`` / ``indices`` / ``degrees`` back to back as
    raw ``<i8`` — every array offset is a multiple of 8, the alignment
    :class:`~repro.graphs.storage.MemmapStorage` maps them back at.
    """
    num_vertices = int(num_vertices)
    if indptr.shape != (num_vertices + 1,) or degrees.shape != (num_vertices,):
        raise GraphError(
            f"CSR arrays do not describe a graph on {num_vertices} vertices "
            f"(indptr {indptr.shape}, degrees {degrees.shape})"
        )
    if len(indices) != int(indptr[-1]):
        raise GraphError(
            f"indptr[-1] ({int(indptr[-1])}) does not match the arc count ({len(indices)})"
        )
    header = json.dumps(
        {
            "version": CSR_FORMAT_VERSION,
            "num_vertices": num_vertices,
            "num_arcs": len(indices),
            "dtype": "<i8",
        }
    ).encode("ascii")
    padded = header + b" " * (-len(header) % 8)
    with open(path, "wb") as stream:
        stream.write(CSR_MAGIC)
        stream.write(len(padded).to_bytes(8, "little"))
        stream.write(padded)
        for array in (indptr, indices, degrees):
            np.ascontiguousarray(array, dtype=np.dtype("<i8")).tofile(stream)


def write_csr_graph(graph: Graph, path: str | Path) -> None:
    """Write ``graph``'s adjacency to ``path`` in the binary ``.csr`` format.

    The inverse :func:`read_csr_graph` (and the ``memmap`` storage backend)
    reproduce the graph bit-identically — same arrays, hence same floats out
    of every kernel (pinned by ``tests/test_graphs_io.py``).
    """
    indptr, indices, degrees = graph.csr_arrays()
    write_csr_arrays(path, graph.num_vertices, indptr, indices, degrees)


def read_csr_layout(path: str | Path) -> CSRFileLayout:
    """Parse and validate the header of a ``.csr`` file (no array data is read)."""
    path = Path(path)
    with open(path, "rb") as stream:
        file_size = os.fstat(stream.fileno()).st_size
        preamble = stream.read(_CSR_PREAMBLE_BYTES)
        if len(preamble) < _CSR_PREAMBLE_BYTES or preamble[:8] != CSR_MAGIC:
            raise GraphError(f"{path}: not a {CSR_MAGIC.decode('ascii')} CSR graph file")
        header_bytes = int.from_bytes(preamble[8:], "little")
        # Checked before reading: a garbage length field would otherwise
        # ask for up to 2**64 bytes (OverflowError or MemoryError).
        if header_bytes > file_size - _CSR_PREAMBLE_BYTES:
            raise GraphError(
                f"{path}: truncated CSR header "
                f"(header length {header_bytes}, file has {file_size} bytes)"
            )
        raw_header = stream.read(header_bytes)
    if len(raw_header) < header_bytes:
        raise GraphError(f"{path}: truncated CSR header")
    try:
        header = json.loads(raw_header)
        version = int(header["version"])
        num_vertices = int(header["num_vertices"])
        num_arcs = int(header["num_arcs"])
        dtype = str(header["dtype"])
    except (ValueError, KeyError, TypeError, OverflowError) as error:
        raise GraphError(f"{path}: malformed CSR header: {error}") from None
    if version != CSR_FORMAT_VERSION:
        raise GraphError(
            f"{path}: unsupported CSR format version {version} "
            f"(this build reads version {CSR_FORMAT_VERSION})"
        )
    if dtype != "<i8":
        raise GraphError(f"{path}: unsupported CSR array dtype {dtype!r}")
    if num_vertices < 0 or num_arcs < 0:
        raise GraphError(f"{path}: negative sizes in CSR header")
    indptr_offset = _CSR_PREAMBLE_BYTES + header_bytes
    indices_offset = indptr_offset + (num_vertices + 1) * 8
    degrees_offset = indices_offset + num_arcs * 8
    expected_size = degrees_offset + num_vertices * 8
    if file_size < expected_size:
        raise GraphError(
            f"{path}: truncated CSR file "
            f"({file_size} bytes, header promises {expected_size})"
        )
    return CSRFileLayout(
        num_vertices=num_vertices,
        num_arcs=num_arcs,
        indptr_offset=indptr_offset,
        indices_offset=indices_offset,
        degrees_offset=degrees_offset,
    )


def read_csr_graph(
    path: str | Path, *, storage: str = STORAGE_MEMMAP, validate: bool = True
) -> Graph:
    """Read a ``.csr`` file back into a :class:`Graph`.

    ``storage`` selects where the arrays land: the default ``"memmap"`` maps
    the file read-only without loading it (the graph then streams from the
    page cache); ``"dense"`` / ``"shm"`` load the arrays into RAM or shared
    segments.  ``validate=False`` skips :meth:`Graph.from_csr`'s structural
    checks for files that provably came out of :func:`write_csr_graph`.
    """
    kind = resolve_storage(storage)
    if kind == STORAGE_MEMMAP:
        backing: Any = MemmapStorage.open(path)
        indptr, indices, degrees = backing.arrays()
    else:
        layout = read_csr_layout(path)
        loaded = [
            np.fromfile(path, dtype=np.dtype("<i8"), count=count, offset=offset)
            for offset, count in (
                (layout.indptr_offset, layout.num_vertices + 1),
                (layout.indices_offset, layout.num_arcs),
                (layout.degrees_offset, layout.num_vertices),
            )
        ]
        backing = storage_from_arrays(kind, layout.num_vertices, *loaded)
        indptr, indices, degrees = backing.arrays()
    return Graph.from_csr(
        backing.num_vertices,
        indptr,
        indices,
        degrees=degrees,
        validate=validate,
        storage=backing,
    )


# ----------------------------------------------------------------------
# SNAP-style edge lists (public datasets)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SnapEdgeList:
    """A SNAP-format dataset loaded into the library's vertex numbering.

    ``vertex_ids[new]`` is the original dataset id of library vertex
    ``new`` (sorted ascending, so the remap is deterministic); vertices
    appearing only in dropped self loops are kept as isolated vertices.
    """

    graph: Graph
    vertex_ids: np.ndarray
    num_self_loops: int


def read_snap_edge_list(path: str | Path) -> SnapEdgeList:
    """Read a SNAP-style edge list: ``#`` comments, gzip, arbitrary vertex ids.

    Each non-comment line holds at least two whitespace-separated integer
    columns (extra columns — weights, timestamps — are ignored).  Ids need
    not be contiguous or start at zero: the distinct ids are remapped to
    ``0..n-1`` in ascending order (``vertex_ids`` records the inverse).
    Self loops — present in several SNAP datasets — are dropped and counted;
    duplicate edges collapse in the :class:`Graph` constructor.  Gzipped
    files are detected by content (the two-byte gzip magic), not extension.
    """
    text = _read_maybe_gzip(path)
    if _DATA_LINE_PATTERN.search(text) is None:
        return SnapEdgeList(
            graph=Graph(0, np.empty((0, 2), dtype=np.int64)),
            vertex_ids=np.empty(0, dtype=np.int64),
            num_self_loops=0,
        )
    try:
        edge_array = np.loadtxt(
            io.StringIO(text), dtype=np.int64, comments="#", usecols=(0, 1), ndmin=2
        )
    except (ValueError, IndexError) as error:
        raise GraphError(f"{path}: malformed SNAP edge list: {error}") from None
    vertex_ids = np.unique(edge_array)
    loops = edge_array[:, 0] == edge_array[:, 1]
    remapped = np.searchsorted(vertex_ids, edge_array[~loops])
    return SnapEdgeList(
        graph=Graph.from_edge_array(len(vertex_ids), remapped),
        vertex_ids=vertex_ids,
        num_self_loops=int(np.count_nonzero(loops)),
    )


def _read_utf8(path: str | Path) -> str:
    """Read a UTF-8 text file; undecodable bytes raise :class:`GraphError`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as error:
        raise GraphError(f"{path}: not UTF-8 text: {error}") from error


def _read_maybe_gzip(path: str | Path) -> str:
    """Read a text file, transparently decompressing gzip (sniffed by magic)."""
    with open(path, "rb") as stream:
        magic = stream.read(2)
    if magic != b"\x1f\x8b":
        return _read_utf8(path)
    try:
        with gzip.open(path, "rt", encoding="utf-8") as compressed:
            return str(compressed.read())
    except UnicodeDecodeError as error:
        raise GraphError(f"{path}: not UTF-8 text: {error}") from error
    except (EOFError, gzip.BadGzipFile, zlib.error) as error:
        raise GraphError(f"{path}: truncated or corrupt gzip stream: {error}") from error


def load_graph_file(
    path: str | Path, *, storage: str | None = None
) -> tuple[Graph, Partition | None, dict[str, Any]]:
    """Load a graph from ``path``, sniffing the format.

    Dispatch order: the binary CSR magic (mapped through the ``memmap``
    backend unless ``storage`` overrides), then a ``.json`` suffix (graph
    bundle, possibly carrying a ground-truth partition), then text edge
    lists — the repo's own headered format via :func:`read_edge_list` when
    the ``# vertices:`` header is present, SNAP-style (gzip, arbitrary ids)
    otherwise.  Returns ``(graph, partition-or-None, info)`` where ``info``
    records the detected format for reporting.  A malformed file of any
    format raises :class:`GraphError`; only a file that cannot be opened
    raises :class:`OSError`.
    """
    path = Path(path)
    with open(path, "rb") as stream:
        magic = stream.read(8)
    if magic == CSR_MAGIC:
        kind = resolve_storage(storage) if storage is not None else STORAGE_MEMMAP
        graph = read_csr_graph(path, storage=kind)
        return graph, None, {"format": "csr", "storage": kind}
    if path.suffix.lower() == ".json":
        graph, partition, metadata = read_graph_json(path)
        info: dict[str, Any] = {"format": "json"}
        if metadata:
            info["metadata"] = metadata
        return graph, partition, info
    if magic[:2] != b"\x1f\x8b" and _HEADER_PATTERN.search(_read_utf8(path)):
        return read_edge_list(path), None, {"format": "edge-list"}
    snap = read_snap_edge_list(path)
    return (
        snap.graph,
        None,
        {
            "format": "snap",
            "num_self_loops": snap.num_self_loops,
            "num_source_ids": len(snap.vertex_ids),
        },
    )

