"""Dump every detection output of a fixed configuration set, or diff two dumps.

A speed change to the detection engine must not move a single output.  This
script runs a fixed list of configurations through :func:`repro.api.detect`
and through :class:`repro.core.BatchedMixingSetSearch` directly, and writes
one canonical JSON line per configuration: every community, member set,
walk length, stop reason, per-step mixing set (members, deficit, mass,
``sizes_examined``), every phase cost, the captured artifacts and the
metadata.  Floats are written as ``float.hex`` strings, so equal lines mean
bit-identical outputs.  Wall-clock timings are left out.

Compare two source trees (for example a parent commit exported with
``git archive`` and a working tree)::

    PYTHONPATH=<parent>/src python benchmarks/identity_dump.py --write parent.jsonl
    PYTHONPATH=src python benchmarks/identity_dump.py --write change.jsonl
    python benchmarks/identity_dump.py --diff parent.jsonl change.jsonl

``--diff`` prints each configuration whose line differs or is missing on
one side and exits 1 if there is any; it needs no ``repro`` import.  The set
covers every CDRW backend (scalar, batched, parallel, congest, kmachine),
pool draws and explicit seeds, the process tier (rounds
it ships and single-seed rounds it runs on the calling thread), the
linear schedule, the first-failure scan, ``min_mass`` variants, lazy walks,
tie-heavy inputs (cycles, regular graphs, quantized columns), isolated
vertices, NaN columns, an edgeless graph, graphs with many degree classes
(dense, heavy-tailed), a graph whose degree bands each hold several
classes, a one-band graph of two classes, and history-off runs on every
centralized tier (where the length-1 search runs only for the walks that
read it).  A full ``--write`` takes about 40 s on one core.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, Iterator

import numpy as np

Config = tuple[str, Callable[[], object]]


def canonical(value: object) -> object:
    """A JSON-safe, order-fixed form of ``value``, floats as exact hex strings."""
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in sorted(value.items(), key=str)}
    if isinstance(value, (set, frozenset)):
        return sorted(canonical(item) for item in value)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, np.ndarray):
        return canonical(value.tolist())
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if value is None or isinstance(value, str):
        return value
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: canonical(getattr(value, name))
            for name in sorted(value.__dataclass_fields__)
        }
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def report_payload(report) -> object:
    """Everything a detection report carries except how the run was scheduled.

    Wall-clock timings and ``process_tasks`` (how many shards the process
    tier shipped to its workers, 0 for a round it runs on the calling
    thread) are left out; the rest of the metadata stays.  So is the
    config's ``dtype`` key, which versions with a float32 scan wrote (always
    ``"float64"`` here), so their dumps diff against later ones.
    """
    data = report.to_dict()
    data.pop("timings", None)
    data["config"].pop("dtype", None)
    data["metadata"] = {
        key: item
        for key, item in data.get("metadata", {}).items()
        if not key.endswith(("_s", "_ms", "_seconds")) and key != "process_tasks"
    }
    return canonical(data)


def heavy_tailed(n: int, exponent: float, average: int, seed: int):
    """A Chung–Lu graph: endpoints drawn with weight ``i^(−1/(exponent−1))``."""
    from repro.graphs import Graph

    rng = np.random.default_rng(seed)
    weights = np.arange(1, n + 1) ** (-1.0 / (exponent - 1.0))
    ends = rng.choice(n, size=(n * average // 2, 2), p=weights / weights.sum())
    ends = np.unique(np.sort(ends[ends[:, 0] != ends[:, 1]], axis=1), axis=0)
    return Graph.from_edge_array(n, ends)


def near_regular(n: int, degree: int, seed: int):
    """A random regular graph less a matching: degrees ``degree − 1`` and ``degree``."""
    from repro.graphs import Graph, random_regular_graph

    edges = random_regular_graph(n, degree, seed=seed).edge_array()
    matched: set[int] = set()
    dropped = []
    for index, (u, v) in enumerate(edges[: n // 4].tolist()):
        if u not in matched and v not in matched:
            matched.update((u, v))
            dropped.append(index)
    return Graph.from_edge_array(n, np.delete(edges, dropped, axis=0))


def graphs():
    """The fixed graph set, built once."""
    from repro.graphs import (
        Graph,
        gnp_random_graph,
        planted_partition_graph,
        random_regular_graph,
    )

    built = {}
    for n in (128, 256, 512):
        for blocks in (2, 4):
            p = min(1.0, 2.0 * math.log(n) ** 2 / n)
            instance = planted_partition_graph(n, blocks, p, 0.6 / n, seed=n + blocks)
            built[f"ppm{n}r{blocks}"] = instance.graph
    built["gnp200"] = gnp_random_graph(200, 0.08, seed=3)
    # About 100 degree classes on 1024 vertices, about 10 per degree band.
    built["dense1024"] = gnp_random_graph(1024, 0.5, seed=4)
    # Degrees about 100 ± 10 with two communities: each band holds several
    # classes, and the walks do not mix in one step.
    built["bands1024"] = planted_partition_graph(1024, 2, 0.2, 0.01, seed=6).graph
    # Many classes over a wide degree range, so many bands.
    built["heavy1024"] = heavy_tailed(1024, 2.5, 20, seed=13)
    # Degrees 19 and 20: two classes in one band.
    built["nearregular512"] = near_regular(512, 20, seed=7)
    built["regular256"] = random_regular_graph(256, 6, seed=5)
    cycle = [(i, (i + 1) % 64) for i in range(64)]
    built["cycle64"] = Graph(64, cycle)
    # A 4-block PPM with 24 isolated vertices appended (degree-0 class).
    base = built["ppm256r4"]
    built["isolated280"] = Graph.from_edge_array(280, base.edge_array())
    built["edgeless16"] = Graph(16, [])
    return built


def run(graph, backend, params=None, delta=0.05, **config) -> Callable[[], object]:
    """A configuration's call: one ``detect()`` and its canonical payload."""
    from repro.api import RunConfig, detect

    return lambda: report_payload(
        detect(graph, backend, params=params, config=RunConfig(**config), delta_hint=delta)
    )


def detect_configs(built) -> Iterator[Config]:
    """``detect()`` runs over every CDRW backend and knob the engine reads."""
    from repro.core import CDRWParameters

    variants = {
        "default": None,
        "lazy": CDRWParameters(lazy_walk=True),
        "linear": CDRWParameters(size_schedule="linear"),
        "first-failure": CDRWParameters(stop_at_first_failure=True),
        "mass0": CDRWParameters(min_mass=0.0),
        "mass05": CDRWParameters(min_mass=0.5),
        "mass1": CDRWParameters(min_mass=1.0),
    }
    for name, graph in built.items():
        if name == "edgeless16":
            continue
        small = graph.num_vertices <= 256
        for variant, params in variants.items():
            if variant == "linear" and not small:
                continue
            for seed in (1, 2):
                yield (
                    f"batched/{name}/{variant}/pool{seed}",
                    run(graph, "batched", params, seed=seed, max_seeds=6, batch_size=4),
                )
            yield (
                f"scalar/{name}/{variant}",
                run(graph, "scalar", params, seed=3, max_seeds=3),
            )
            yield (
                f"batched/{name}/{variant}/explicit",
                run(graph, "batched", params, seeds=(0, 7, graph.num_vertices - 1, 7)),
            )
            yield (
                f"parallel/{name}/{variant}",
                run(graph, "parallel", params, seed=5, num_communities=4),
            )
            yield (
                f"parallel/{name}/{variant}/explicit",
                run(graph, "parallel", params, seeds=(3, 9), num_communities=4),
            )
            yield (
                f"batched/{name}/{variant}/capture",
                run(
                    graph,
                    "batched",
                    params,
                    seed=6,
                    max_seeds=2,
                    capture_distributions=True,
                    capture_history=False,
                ),
            )
        for machines in (2, 4):
            yield (
                f"kmachine/{name}/k{machines}",
                run(
                    graph,
                    "kmachine",
                    seed=7,
                    max_seeds=2,
                    num_machines=machines,
                    partition_seed=1,
                ),
            )
        if small:
            yield f"congest/{name}", run(graph, "congest", seed=8, max_seeds=2)
    yield (
        "congest/ppm128r2/messages",
        run(built["ppm128r2"], "congest", seed=9, max_seeds=1, count_only=False),
    )
    yield "batched/edgeless16", run(built["edgeless16"], "batched", seed=1, max_seeds=3)
    yield (
        "batched/ppm256r4/no-delta",
        run(built["ppm256r4"], "batched", delta=None, seed=2, max_seeds=3),
    )
    for workers in (1, 2):
        for name in ("ppm512r4", "isolated280"):
            yield (
                f"batched/{name}/process{workers}",
                run(
                    built[name],
                    "batched",
                    seed=10,
                    max_seeds=8,
                    executor="process",
                    workers=workers,
                ),
            )
            yield (
                f"batched/{name}/threads{workers}",
                run(built[name], "batched", seed=10, max_seeds=8, workers=workers),
            )
            # Single-seed rounds, which the process tier runs on the
            # calling thread, next to the shipped rounds above.
            for capture in (False, True):
                yield (
                    f"batched/{name}/process{workers}/one-seed/capture{int(capture)}",
                    run(
                        built[name],
                        "batched",
                        seeds=(5,),
                        executor="process",
                        workers=workers,
                        capture_distributions=capture,
                    ),
                )
            yield (
                f"batched/{name}/process{workers}/pool-b1",
                run(
                    built[name],
                    "batched",
                    seed=11,
                    max_seeds=4,
                    batch_size=1,
                    executor="process",
                    workers=workers,
                ),
            )
            yield (
                f"parallel/{name}/process{workers}/one-seed",
                run(
                    built[name],
                    "parallel",
                    seeds=(3,),
                    num_communities=4,
                    executor="process",
                    workers=workers,
                ),
            )
            yield (
                f"parallel/{name}/process{workers}",
                run(
                    built[name],
                    "parallel",
                    seed=5,
                    num_communities=4,
                    executor="process",
                    workers=workers,
                ),
            )


def history_off_configs(built) -> Iterator[Config]:
    """History-off runs on every centralized tier, where S_1 is read only on demand.

    ``complete64`` finds S_2, so S_1 is searched late and reported;
    ``regular128`` with a budget of 2 falls back to S_1, and with a budget
    of 1 reads nothing but S_1.
    """
    from itertools import combinations

    from repro.core import CDRWParameters
    from repro.graphs import Graph, random_regular_graph

    regular = random_regular_graph(128, 8, seed=3)
    cases = {
        "complete64": (Graph(64, list(combinations(range(64), 2))), None),
        "regular128/max1": (regular, CDRWParameters(max_walk_length=1)),
        "regular128/max2": (regular, CDRWParameters(max_walk_length=2)),
        "ppm512r4/lazy": (built["ppm512r4"], CDRWParameters(lazy_walk=True)),
    }
    tiers = {
        "scalar": ("scalar", {"seed": 3, "max_seeds": 3}),
        "batched": ("batched", {"seed": 1, "max_seeds": 6, "batch_size": 4}),
        "parallel": ("parallel", {"seed": 5, "num_communities": 4}),
        "process": ("batched", {"seed": 10, "max_seeds": 8, "executor": "process", "workers": 2}),
    }
    for name, (graph, params) in cases.items():
        for tier, (backend, config) in tiers.items():
            yield (
                f"history-off/{name}/{tier}",
                run(graph, backend, params, capture_history=False, **config),
            )


def search_configs(built) -> Iterator[Config]:
    """Direct kernel calls on synthetic columns: ties, NaNs, both scan orders."""
    from repro.core import BatchedMixingSetSearch

    def columns(graph, kind: str, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        n = graph.num_vertices
        if kind == "random":
            matrix = rng.random((n, 5))
        elif kind == "tied":
            matrix = rng.integers(0, 3, size=(n, 5)).astype(np.float64)
        else:
            degrees = graph.degrees().astype(np.float64)
            stationary = degrees / max(degrees.sum(), 1.0)
            matrix = np.column_stack([stationary, stationary * 0.9, rng.random(n)])
            matrix[0, 1] += 0.1
        sums = matrix.sum(axis=0, keepdims=True)
        sums[sums == 0.0] = 1.0
        matrix = matrix / sums
        if kind == "random":
            matrix[: n // 3, 4] = np.nan
        return matrix

    def search(graph, matrix, **kwargs):
        def call():
            engine = BatchedMixingSetSearch(graph, **kwargs)
            return canonical([engine.largest_mixing_sets(matrix, 3)])

        return call

    for name, graph in built.items():
        if name == "edgeless16":
            continue
        for kind in ("random", "tied", "stationary"):
            matrix = columns(graph, kind, seed=graph.num_vertices)
            for first_failure in (False, True):
                yield (
                    f"search/{name}/{kind}/ff{int(first_failure)}",
                    search(
                        graph,
                        matrix,
                        initial_size=2,
                        stop_at_first_failure=first_failure,
                        min_mass=0.0,
                    ),
                )
            if graph.num_vertices <= 256:
                yield (
                    f"search/{name}/{kind}/linear",
                    search(graph, matrix, initial_size=1, schedule="linear"),
                )


def configurations() -> list[Config]:
    built = graphs()
    return (
        list(detect_configs(built))
        + list(history_off_configs(built))
        + list(search_configs(built))
    )


def write(path: str) -> None:
    configs = configurations()
    with open(path, "w", encoding="utf-8") as handle:
        for index, (key, call) in enumerate(configs, start=1):
            handle.write(json.dumps({"key": key, "value": call()}, sort_keys=True) + "\n")
            if index % 50 == 0:
                print(f"{index}/{len(configs)}", file=sys.stderr, flush=True)
    print(f"wrote {len(configs)} configurations to {path}")


def load(path: str) -> dict[str, str]:
    lines: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            lines[record["key"]] = json.dumps(record["value"], sort_keys=True)
    return lines


def diff(before_path: str, after_path: str) -> int:
    before, after = load(before_path), load(after_path)
    differences = 0
    for key in sorted(set(before) | set(after)):
        if before.get(key) != after.get(key):
            differences += 1
            side = "missing" if key not in before or key not in after else "differs"
            print(f"{side}: {key}")
    print(f"{len(set(before) | set(after))} configurations, {differences} differences")
    return 1 if differences else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="PATH", help="run every configuration, dump to PATH")
    group.add_argument(
        "--diff", nargs=2, metavar=("BEFORE", "AFTER"), help="compare two dumps"
    )
    arguments = parser.parse_args(argv)
    if arguments.write:
        write(arguments.write)
        return 0
    return diff(*arguments.diff)


if __name__ == "__main__":
    raise SystemExit(main())
