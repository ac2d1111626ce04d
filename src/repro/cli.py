"""Command-line interface: the paper's figures and cost tables from a terminal.

Subcommands: ``detect`` and ``serve`` (the detection facade, one-shot or as
a JSON-lines TCP service), ``figure1`` … ``figure4b``, ``congest``,
``kmachine`` and ``baselines`` (the paper's experiments), ``lint`` and
``bench``.  Throughput comparisons of the execution tiers (batched,
parallel, process, session, service) are rows of
``benchmarks/bench_graph_kernel.py``, not subcommands.

Examples
--------
Run community detection through the unified facade on a generated PPM graph::

    repro detect --backend batched --n 1024 --blocks 2
    repro detect --list-backends
    repro detect --backend congest --n 256 --max-seeds 1 --json

Reproduce Figure 3 with two trials per cell::

    python -m repro figure3 --trials 2

Measure the k-machine scaling on a 1024-vertex PPM graph::

    python -m repro kmachine --n 1024 --machines 2 4 8 16

Check the tree against the engine's coding invariants::

    repro lint src tests
    repro lint --list-rules
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from .api import RunConfig, available_backends, detect, get_backend
from .exceptions import BackendError, ReproError
from .experiments import (
    compare_baselines,
    congest_scaling,
    figure1_stats,
    figure2_grid,
    figure3_grid,
    figure4a_grid,
    figure4b_grid,
    kmachine_scaling,
    render_experiment,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` command."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Efficient Distributed Community Detection "
            "in the Stochastic Block Model' (ICDCS 2019)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="experiment seed (default 0)")
    # --seed is also accepted *after* the subcommand (`repro detect --seed 5`):
    # every subparser inherits this parent.  Its default is SUPPRESS so that a
    # subcommand-side omission keeps whatever the top-level parse set —
    # argparse parses a subcommand into a fresh namespace and copies it over
    # the main one, so a plain default here would clobber `repro --seed 5
    # detect` back to 0.
    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="experiment seed (default 0; may be given before or after the subcommand)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    detect_parser = subparsers.add_parser(
        "detect",
        help="run community detection on a generated PPM through the repro.api facade",
        parents=[seed_parent],
    )
    detect_parser.add_argument(
        "--backend",
        default="batched",
        help="registered backend name (see --list-backends; default: batched)",
    )
    detect_parser.add_argument(
        "--list-backends",
        action="store_true",
        help="print the registered backends and exit",
    )
    detect_parser.add_argument("--n", type=int, default=1024, help="PPM vertices")
    detect_parser.add_argument("--blocks", type=int, default=2, help="PPM blocks r")
    detect_parser.add_argument(
        "--graph-file",
        default=None,
        metavar="PATH",
        help="detect on a graph file instead of a generated PPM: .csr binary "
        "(memmapped), .json (ground-truth partition used for f_score), plain "
        "or SNAP-style edge list (# comments, arbitrary ids, .gz accepted)",
    )
    detect_parser.add_argument(
        "--storage",
        choices=["dense", "shm", "memmap"],
        default=None,
        help="storage backend for --graph-file CSR files (default: memmap)",
    )
    detect_parser.add_argument("--batch-size", type=int, default=8)
    detect_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes of --executor process (ignored by --executor "
        "thread); default: REPRO_WORKERS or serial; 0 = all cores",
    )
    detect_parser.add_argument(
        "--executor",
        choices=["thread", "process"],
        default=None,
        help="execution tier of the batched/parallel backends (default: "
        "REPRO_EXECUTOR or thread; process = shared-memory worker pool)",
    )
    detect_parser.add_argument(
        "--num-communities",
        type=int,
        default=None,
        help="community-count estimate r (parallel / spectral / walktrap backends; "
        "defaults to --blocks)",
    )
    detect_parser.add_argument(
        "--machines", type=int, default=4, help="machine count of the kmachine backend"
    )
    detect_parser.add_argument(
        "--max-seeds", type=int, default=None, help="cap on the number of seeds processed"
    )
    detect_parser.add_argument(
        "--session-repeat",
        type=int,
        default=None,
        metavar="N",
        help="run the detection N times through one resident DetectionSession "
        "(batched/parallel backends): the graph broadcast, worker pool and "
        "cached operators are reused across calls, results identical per call",
    )
    detect_parser.add_argument(
        "--json",
        action="store_true",
        help="print the full RunReport as JSON instead of the summary",
    )

    figure1 = subparsers.add_parser(
        "figure1", help="structure of the Figure 1 PPM instance", parents=[seed_parent]
    )
    figure1.add_argument("--n", type=int, default=1000)
    figure1.add_argument("--blocks", type=int, default=5)

    figure2 = subparsers.add_parser(
        "figure2", help="CDRW accuracy on G(n, p)", parents=[seed_parent]
    )
    figure2.add_argument("--trials", type=int, default=3)
    figure2.add_argument("--sizes", type=int, nargs="+", default=None)

    figure3 = subparsers.add_parser(
        "figure3", help="CDRW accuracy on 2-block PPM graphs", parents=[seed_parent]
    )
    figure3.add_argument("--trials", type=int, default=3)
    figure3.add_argument("--n", type=int, default=2048)

    figure4a = subparsers.add_parser(
        "figure4a", help="accuracy vs r, fixed community size", parents=[seed_parent]
    )
    figure4a.add_argument("--trials", type=int, default=3)

    figure4b = subparsers.add_parser(
        "figure4b", help="accuracy vs r, fixed total size", parents=[seed_parent]
    )
    figure4b.add_argument("--trials", type=int, default=3)

    congest = subparsers.add_parser(
        "congest", help="CONGEST round/message scaling", parents=[seed_parent]
    )
    congest.add_argument("--sizes", type=int, nargs="+", default=None)

    kmachine = subparsers.add_parser(
        "kmachine", help="k-machine round scaling", parents=[seed_parent]
    )
    kmachine.add_argument("--n", type=int, default=1024)
    kmachine.add_argument("--machines", type=int, nargs="+", default=None)

    baselines = subparsers.add_parser(
        "baselines", help="CDRW vs baseline methods", parents=[seed_parent]
    )
    baselines.add_argument("--n", type=int, default=1024)
    baselines.add_argument("--blocks", type=int, default=2)

    serve = subparsers.add_parser(
        "serve",
        help="serve detections over JSON-lines TCP: one DetectionService "
        "coalescing concurrent client requests into detect_batch waves",
        parents=[seed_parent],
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0 = pick a free port; the bound port is printed)",
    )
    serve.add_argument("--n", type=int, default=1024, help="PPM vertices")
    serve.add_argument("--blocks", type=int, default=2, help="PPM blocks r")
    serve.add_argument(
        "--graph-file",
        default=None,
        metavar="PATH",
        help="serve a graph file instead of a generated PPM (same formats as "
        "repro detect)",
    )
    serve.add_argument(
        "--storage",
        choices=["dense", "shm", "memmap"],
        default=None,
        help="storage backend for --graph-file CSR files (default: memmap)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes of --executor process (ignored by --executor "
        "thread); default: REPRO_WORKERS or serial; 0 = all cores",
    )
    serve.add_argument(
        "--executor",
        choices=["thread", "process"],
        default=None,
        help="execution tier (default: REPRO_EXECUTOR or thread)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission-queue bound; a full queue rejects with 'overloaded'",
    )
    serve.add_argument(
        "--max-wave",
        type=int,
        default=64,
        help="largest number of distinct seeds coalesced into one wave",
    )
    serve.add_argument(
        "--capture-history",
        action="store_true",
        help="include per-step mixing histories in served reports (large; "
        "off by default for the wire)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the AST-based invariant checker (repro.analysis) over the tree",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )

    bench = subparsers.add_parser(
        "bench",
        help="diff two archived benchmark JSON runs "
        "(bench_graph_kernel.py --json) and flag regressions",
    )
    bench.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        required=True,
        help="archived benchmark JSON files: the baseline and the current run",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="relative worsening tolerated on timing/speedup keys "
        "(default 0.2 = 20%%; identity keys always compare exact)",
    )
    bench.add_argument(
        "--verbose",
        action="store_true",
        help="print every compared key, not only regressions",
    )

    return parser


def _resolve_graph(arguments: argparse.Namespace):
    """Build the graph a subcommand runs on (shared by detect / serve).

    Returns ``(graph, truth, delta_hint, description)``, or ``None`` after
    printing an error — callers return exit code 2.
    """
    from .graphs import planted_partition_graph, ppm_expected_conductance

    command = arguments.command
    if arguments.storage is not None and arguments.graph_file is None:
        print(
            f"repro {command}: --storage only applies to --graph-file input",
            file=sys.stderr,
        )
        return None
    if arguments.graph_file is not None:
        from pathlib import Path

        from .exceptions import GraphError
        from .graphs import load_graph_file

        try:
            graph, truth, info = load_graph_file(
                Path(arguments.graph_file), storage=arguments.storage
            )
        except (OSError, GraphError) as error:
            print(f"repro {command}: {error}", file=sys.stderr)
            return None
        # File graphs carry no analytic conductance; let the engine resolve
        # δ from the graph itself unless a ground-truth partition rode along.
        delta = None
        graph_line = (
            f"  graph: {arguments.graph_file} ({info['format']}, "
            f"storage={graph.storage_kind}) n={graph.num_vertices}, "
            f"m={graph.num_edges}"
        )
        return graph, truth, delta, graph_line
    n = arguments.n
    blocks = arguments.blocks
    p = min(1.0, 2.0 * math.log(n) ** 2 / n)
    q = 0.6 / n
    ppm = planted_partition_graph(n, blocks, p, q, seed=arguments.seed)
    delta = ppm_expected_conductance(n, blocks, p, q)
    graph_line = (
        f"  graph: PPM n={n}, r={blocks}, m={ppm.graph.num_edges} "
        f"(p={p:.4f}, q={q:.6f})"
    )
    return ppm.graph, ppm.partition, delta, graph_line


def _run_detect(arguments: argparse.Namespace) -> int:
    """Execute the ``repro detect`` subcommand."""
    from .metrics import average_f_score

    if arguments.list_backends:
        print(f"{'backend':<28} description")
        for name in available_backends():
            print(f"{name:<28} {get_backend(name).description}")
        return 0

    # Validate the backend name and the run config *before* generating the
    # graph: a typo should fail in milliseconds with the full registry
    # listed, not after paying for a PPM instance.
    try:
        get_backend(arguments.backend)
        config = RunConfig(
            seed=arguments.seed,
            max_seeds=arguments.max_seeds,
            batch_size=arguments.batch_size,
            workers=arguments.workers,
            executor=arguments.executor,
            num_communities=(
                arguments.num_communities
                if arguments.num_communities is not None
                else arguments.blocks
            ),
            num_machines=arguments.machines,
        )
    except BackendError as error:
        print(f"repro detect: {error}", file=sys.stderr)
        return 2

    resolved = _resolve_graph(arguments)
    if resolved is None:
        return 2
    graph, truth, delta, graph_line = resolved
    repeats = arguments.session_repeat
    if repeats is not None and repeats < 1:
        print(
            f"repro detect: --session-repeat must be >= 1, got {repeats}",
            file=sys.stderr,
        )
        return 2
    session_line = None
    try:
        if repeats is None:
            report = detect(
                graph, backend=arguments.backend, config=config, delta_hint=delta
            )
        else:
            from .session import DetectionSession

            with DetectionSession(
                graph, config=config, delta_hint=delta
            ) as session:
                reports = [
                    session.detect(backend=arguments.backend) for _ in range(repeats)
                ]
                report = reports[-1]
                total = sum(r.timings["total_seconds"] for r in reports)
                identical = all(
                    r.detection == report.detection for r in reports
                )
                session_line = (
                    f"  session: {repeats} calls in {total:.3f} s "
                    f"({total / repeats:.3f} s/call), "
                    f"broadcasts={session.broadcasts}, "
                    f"identical={'yes' if identical else 'NO'}"
                )
    except BackendError as error:
        print(f"repro detect: {error}", file=sys.stderr)
        return 2

    if arguments.json:
        print(report.to_json(indent=2))
        return 0

    detection = report.detection
    print(f"detect: backend={report.backend}")
    print(graph_line)
    result_line = (
        f"  result: {detection.num_communities} communities, "
        f"coverage {detection.coverage():.1%}"
    )
    if truth is not None:
        result_line += f", f_score {average_f_score(detection, truth):.3f}"
    print(result_line)
    print(f"  wall clock: {report.timings['total_seconds']:.3f} s")
    if session_line is not None:
        print(session_line)
    total = report.total_cost
    if total is not None:
        parts = [f"rounds={total.rounds}"]
        if hasattr(total, "messages"):
            parts.append(f"messages={total.messages}")
        if hasattr(total, "inter_machine_messages"):
            parts.append(f"inter_machine_messages={total.inter_machine_messages}")
        print(f"  cost ({len(report.phase_costs)} phases): {', '.join(parts)}")
    return 0


def _run_serve(arguments: argparse.Namespace) -> int:
    """Execute the ``repro serve`` subcommand: a JSON-lines TCP daemon."""
    from .service import DetectionService
    from .service_net import run_server

    resolved = _resolve_graph(arguments)
    if resolved is None:
        return 2
    graph, _truth, delta, graph_line = resolved
    config = RunConfig(
        seed=arguments.seed,
        workers=arguments.workers,
        executor=arguments.executor,
        capture_history=arguments.capture_history,
    )
    print("serve: coalescing detection service")
    print(graph_line)
    try:
        with DetectionService(
            graph,
            config=config,
            delta_hint=delta,
            max_pending=arguments.max_pending,
            max_wave=arguments.max_wave,
        ) as service:
            try:
                run_server(service, arguments.host, arguments.port)
            except KeyboardInterrupt:
                print("shutting down: draining pending waves")
    except BackendError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2
    return 0


def _run_bench(arguments: argparse.Namespace) -> int:
    """Execute the ``repro bench --compare`` subcommand."""
    from .benchcompare import DEFAULT_THRESHOLD, compare_files, render_comparison

    threshold = (
        arguments.threshold if arguments.threshold is not None else DEFAULT_THRESHOLD
    )
    old_path, new_path = arguments.compare
    try:
        comparison = compare_files(old_path, new_path, threshold=threshold)
    except (OSError, ReproError) as error:
        print(f"repro bench: {error}", file=sys.stderr)
        return 2
    print(render_comparison(comparison, verbose=arguments.verbose))
    return 0 if comparison.ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro`` command; returns a process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)

    if arguments.command == "detect":
        return _run_detect(arguments)

    if arguments.command == "serve":
        return _run_serve(arguments)

    if arguments.command == "bench":
        return _run_bench(arguments)

    if arguments.command == "lint":
        from .analysis import main as lint_main

        lint_argv = list(arguments.paths)
        if arguments.list_rules:
            lint_argv.append("--list-rules")
        return lint_main(lint_argv)

    # The paper's tables validate their arguments inside the experiment
    # code; a bad value exits 2 with one line, like the other subcommands.
    try:
        if arguments.command == "figure1":
            table = figure1_stats(
                n=arguments.n, num_blocks=arguments.blocks, seed=arguments.seed
            )
        elif arguments.command == "figure2":
            kwargs = {"trials": arguments.trials, "seed": arguments.seed}
            if arguments.sizes:
                kwargs["sizes"] = tuple(arguments.sizes)
            table = figure2_grid(**kwargs)
        elif arguments.command == "figure3":
            table = figure3_grid(
                n=arguments.n, trials=arguments.trials, seed=arguments.seed
            )
        elif arguments.command == "figure4a":
            table = figure4a_grid(trials=arguments.trials, seed=arguments.seed)
        elif arguments.command == "figure4b":
            table = figure4b_grid(trials=arguments.trials, seed=arguments.seed)
        elif arguments.command == "congest":
            kwargs = {"seed": arguments.seed}
            if arguments.sizes:
                kwargs["sizes"] = tuple(arguments.sizes)
            table = congest_scaling(**kwargs)
        elif arguments.command == "kmachine":
            kwargs = {"n": arguments.n, "seed": arguments.seed}
            if arguments.machines:
                kwargs["machine_counts"] = tuple(arguments.machines)
            table = kmachine_scaling(**kwargs)
        elif arguments.command == "baselines":
            table = compare_baselines(
                n=arguments.n, num_blocks=arguments.blocks, seed=arguments.seed
            )
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {arguments.command!r}")
            return 2
    except ReproError as error:
        print(f"repro {arguments.command}: {error}", file=sys.stderr)
        return 2

    print(render_experiment(table))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
