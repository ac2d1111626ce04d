"""Compare two saved runs (``run.py --out FILE``) metric by metric.

    python3 perfbench/compare.py OLD.json NEW.json

Refuses (exit 2) to compare runs of different workloads or trace modes, and
runs taken on hosts with different core counts: a parallel tier measured
on one core says nothing about two.  Otherwise prints each metric's change
and exits 1 when an end-to-end metric worsened by more than its bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any


def compare(
    old: dict[str, Any], new: dict[str, Any], bounds: dict[str, tuple[str, float]]
) -> tuple[int, list[str]]:
    """Return ``(exit status, report lines)`` for two saved runs."""
    old_record, new_record = old["record"], new["record"]
    for key in ("workload", "trace"):
        if old_record[key] != new_record[key]:
            return 2, [f"refusing to compare: {key} differs ({old_record[key]} vs {new_record[key]})"]
    old_cores, new_cores = old_record["host"]["nproc"], new_record["host"]["nproc"]
    if old_cores != new_cores:
        return 2, [f"refusing to compare: core counts differ ({old_cores} vs {new_cores})"]
    status, lines = 0, []
    for name, entry in new["result"]["metrics"].items():
        before = old["result"]["metrics"].get(name)
        if before is None:
            lines.append(f"{name}: new metric {entry['value']:.6g} {entry['unit']}")
            continue
        a, b = before["value"], entry["value"]
        change = (b - a) / a if a else 0.0
        verdict = ""
        if name in bounds:
            better, bound = bounds[name]
            worse = -change if better == "higher" else change
            if worse > bound:
                verdict = f"  REGRESSION (bound {bound:.0%})"
                status = 1
        lines.append(f"{name}: {a:.6g} -> {b:.6g} {entry['unit']} ({change:+.1%}){verdict}")
    return status, lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(path).read_text()) for path in argv)
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    status, lines = compare(old, new, bounds)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
