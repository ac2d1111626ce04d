"""The repository benchmark: three workloads over the public detection surface.

Run from the root of a checkout::

    python3 perfbench/run.py --workload service-open-loop --seed 1 --seconds 45 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``service-open-loop`` -- ``DetectionService.submit()`` under a Poisson
  arrival schedule with a hot-seed mix;
* ``wire-closed-loop`` -- a ``ServiceClient`` connection against a
  ``python -m repro serve`` child process.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a separate
run that installs layer wrappers from this directory (``tracing.py``) and
reports the per-layer metrics, including ``trace.overhead_ratio``.  Layers
a workload does not exercise report 0.  Every run checks the program's
outputs and that no process it started is still alive; any failed check
makes the run incorrect and the exit code 1.

The last stdout line is the result object the benchmark contract asks
for; the line before it is a record with the host facts (core count, CPU,
versions, seed), the sample count of every metric and the process groups
the run created.  ``compare.py`` diffs two saved records and refuses runs
taken on different core counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import sys
import time
from pathlib import Path
from typing import Any

#: The metric registry is BENCHMARK.json itself: ``--trace 0`` reports every
#: ``end_to_end`` metric, ``--trace 1`` every ``per_layer`` metric.
BENCHMARK_FILE = "BENCHMARK.json"

#: Workload name -> module of this package defining ``run``, ``FULL`` and ``TOY``.
WORKLOADS = {
    "service-open-loop": "service_loop",
    "wire-closed-loop": "wire",
}


def registry(root: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit for one trace mode, from ``BENCHMARK.json``."""
    spec = json.loads((root / BENCHMARK_FILE).read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Interrupted(Exception):
    """Raised from the SIGTERM handler so every ``finally`` still runs."""


def _import_program(root: Path) -> None:
    """Import ``repro`` from the checkout's ``src`` and nowhere else."""
    source = root / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {source}: {error}")
    location = Path(repro.__file__).resolve()
    if source.resolve() not in location.parents:
        raise SystemExit(f"perfbench: repro resolved to {location}, outside {source}")


def result_object(
    outcome: Any, units: dict[str, str], problems: list[str], trace: bool, child_kib: int | None
) -> tuple[dict[str, Any], dict[str, int]]:
    """The contract's last-line object, plus the sample count per metric.

    A layer the workload does not exercise reports 0 with 0 samples; an
    end-to-end metric is never allowed to be missing.
    """
    from perfbench.common import peak_rss_mb

    attempted = max(1, outcome.attempted)
    failed = min(outcome.failed, attempted)
    measured = dict(outcome.metrics)
    measured["success_share"] = (1.0 - failed / attempted, attempted)
    measured["failed_share"] = (failed / attempted, attempted)
    measured["peak_rss_mb"] = (peak_rss_mb(child_kib), 1)
    metrics, samples = {}, {}
    for name, unit in units.items():
        if name not in measured and not trace:
            raise RuntimeError(f"the workload did not measure end-to-end metric {name}")
        value, count = measured.get(name, (0.0, 0))
        metrics[name] = {"value": value, "unit": unit}
        samples[name] = count
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy", action="store_true", help="tiny inputs, for the benchmark's own tests"
    )
    parser.add_argument("--out", help="also write the record and result to this JSON file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    _import_program(root)
    from perfbench.common import host_facts
    from perfbench.procs import Ownership

    def interrupt(signum: int, _frame: object) -> None:
        raise Interrupted(f"signal {signum}")

    previous = signal.signal(signal.SIGTERM, interrupt)
    ownership = Ownership()
    units = registry(root, bool(args.trace))
    module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
    spec = module.TOY if args.toy else module.FULL
    started = time.perf_counter()
    outcome = None
    try:
        outcome = module.run(spec, args.seed, args.seconds, bool(args.trace), ownership)
    finally:
        survivors = ownership.survivors()
        if survivors:
            ownership.kill_survivors()
        signal.signal(signal.SIGTERM, previous)
        if outcome is None:
            for problem in survivors:
                print(f"perfbench: {problem}", file=sys.stderr)
    problems = outcome.problems + survivors
    result, samples = result_object(
        outcome, units, problems, bool(args.trace), ownership.child_peak_rss_kib()
    )
    record = {
        "record": {
            "workload": args.workload,
            "trace": args.trace,
            "seconds": args.seconds,
            "toy": args.toy,
            "wall_s": time.perf_counter() - started,
            "host": host_facts(args.seed),
            "samples": samples,
            "process_groups": ownership.groups,
            "problems": problems,
        }
    }
    if args.out:
        Path(args.out).write_text(json.dumps({**record, "result": result}, indent=1))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(record), flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    # ``python3 perfbench/run.py`` puts perfbench/ itself on sys.path; the
    # workload modules import each other as the ``perfbench`` package.
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
