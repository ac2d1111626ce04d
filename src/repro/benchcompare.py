"""Regression diff over archived benchmark JSON documents.

``benchmarks/bench_graph_kernel.py --json BENCH.json`` archives one run as a
document with ``machine`` facts, the ``workload`` constants, the enforced
``thresholds`` and a flat ``results`` mapping of floats.  This module diffs
two such archives — typically the committed baseline of a branch point
against the current working tree — and flags the regressions:

* ``*_s`` keys are wall-clock seconds, **lower is better**: a new value more
  than ``threshold`` (default 20%) above the old one is a regression;
* ``*_speedup`` keys are ratios, **higher is better**: a drop of more than
  ``threshold`` below the old value is a regression;
* every other numeric key is an **identity** (``*_identical``,
  ``session_broadcasts``, byte counters): any change is flagged — these
  encode correctness gates and deterministic traffic counts, not timings;
* keys present in the old run but missing from the new one are flagged
  (a silently dropped measurement must not read as "no regression");
* when the two documents record different ``machine.cpu_count`` values, the
  ``*_s`` and ``*_speedup`` keys are **not comparable**: they are listed but
  never count as regressions (a parallel tier timed on one core says nothing
  about two), while identity keys stay gated.

Timing noise cuts both ways, which is why only *worsenings* beyond the
threshold fail; improvements are reported but never fatal.  The CLI
(``repro bench --compare old.json new.json``) exits non-zero when any
regression or dropped key is found, which is what the CI benchmark job
keys on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .exceptions import ReproError

__all__ = [
    "BenchComparison",
    "KeyDelta",
    "compare_documents",
    "compare_files",
    "load_benchmark_document",
    "render_comparison",
    "DEFAULT_THRESHOLD",
]

#: Relative worsening tolerated on timing and speedup keys before a delta
#: counts as a regression (0.2 = 20%).
DEFAULT_THRESHOLD = 0.2


@dataclass(frozen=True)
class KeyDelta:
    """One compared result key: its values, direction and verdict."""

    key: str
    #: ``"timing"`` (lower better), ``"speedup"`` (higher better) or
    #: ``"identity"`` (must match exactly).
    kind: str
    old: float
    new: float
    #: Relative change in the *worse* direction: positive means the new run
    #: is worse (slower / less speedup), negative means it improved.
    #: Identities use 0.0 (match) or ``inf`` (mismatch).
    worsening: float
    regressed: bool
    #: False for timing and speedup keys of runs on different core counts:
    #: listed, but never a regression.
    comparable: bool = True


@dataclass(frozen=True)
class BenchComparison:
    """The full diff of two benchmark documents."""

    benchmark: str
    threshold: float
    deltas: tuple[KeyDelta, ...]
    #: Keys the old run measured that the new run does not carry.
    missing_keys: tuple[str, ...]
    #: Keys new to this run (informational — new coverage, never fatal).
    added_keys: tuple[str, ...]
    #: ``(old, new)`` core counts when they differ (timings then not
    #: comparable), else ``None``.
    core_counts: tuple[int, int] | None = None

    @property
    def regressions(self) -> tuple[KeyDelta, ...]:
        return tuple(delta for delta in self.deltas if delta.regressed)

    @property
    def ok(self) -> bool:
        """True when nothing regressed and nothing was dropped."""
        return not self.regressions and not self.missing_keys


def load_benchmark_document(path: str | Path) -> dict:
    """Read one archived benchmark JSON document, validating its shape."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ReproError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(document, dict) or "results" not in document:
        raise ReproError(
            f"{path} is not a benchmark archive: expected a JSON object "
            "with a 'results' mapping (see bench_graph_kernel.py --json)"
        )
    results = document["results"]
    if not isinstance(results, dict):
        raise ReproError(f"{path}: 'results' must be a mapping of floats")
    return document


def _key_kind(key: str) -> str:
    if key.endswith("_s"):
        return "timing"
    if key.endswith("_speedup"):
        return "speedup"
    return "identity"


def compare_documents(
    old: dict, new: dict, *, threshold: float = DEFAULT_THRESHOLD
) -> BenchComparison:
    """Diff two benchmark documents (as loaded JSON) key by key."""
    if threshold < 0:
        raise ReproError(f"comparison threshold must be >= 0, got {threshold}")
    old_results = {
        key: float(value)
        for key, value in old.get("results", {}).items()
        if isinstance(value, (int, float))
    }
    new_results = {
        key: float(value)
        for key, value in new.get("results", {}).items()
        if isinstance(value, (int, float))
    }
    old_cores = old.get("machine", {}).get("cpu_count")
    new_cores = new.get("machine", {}).get("cpu_count")
    core_counts = (
        (old_cores, new_cores)
        if old_cores is not None and new_cores is not None and old_cores != new_cores
        else None
    )
    deltas: list[KeyDelta] = []
    for key in sorted(old_results):
        if key not in new_results:
            continue
        kind = _key_kind(key)
        before, after = old_results[key], new_results[key]
        comparable = kind == "identity" or core_counts is None
        if not comparable:
            worsening, regressed = 0.0, False
        elif kind == "timing":
            worsening = (after - before) / before if before > 0 else 0.0
            regressed = worsening > threshold
        elif kind == "speedup":
            worsening = (before - after) / before if before > 0 else 0.0
            regressed = worsening > threshold
        else:
            mismatch = after != before
            worsening = float("inf") if mismatch else 0.0
            regressed = mismatch
        deltas.append(
            KeyDelta(
                key=key,
                kind=kind,
                old=before,
                new=after,
                worsening=worsening,
                regressed=regressed,
                comparable=comparable,
            )
        )
    missing = tuple(sorted(set(old_results) - set(new_results)))
    added = tuple(sorted(set(new_results) - set(old_results)))
    return BenchComparison(
        benchmark=str(new.get("benchmark", old.get("benchmark", "unknown"))),
        threshold=threshold,
        deltas=tuple(deltas),
        missing_keys=missing,
        added_keys=added,
        core_counts=core_counts,
    )


def compare_files(
    old_path: str | Path,
    new_path: str | Path,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> BenchComparison:
    """Diff two archived benchmark JSON files."""
    return compare_documents(
        load_benchmark_document(old_path),
        load_benchmark_document(new_path),
        threshold=threshold,
    )


def render_comparison(comparison: BenchComparison, *, verbose: bool = False) -> str:
    """Render the diff as the table ``repro bench --compare`` prints.

    Regressions, not-comparable keys and dropped keys always print;
    unchanged/improved keys only with ``verbose``.
    """
    lines = [
        f"benchmark {comparison.benchmark}: "
        f"{len(comparison.deltas)} keys compared, "
        f"threshold {comparison.threshold:.0%}"
    ]
    if comparison.core_counts is not None:
        old_cores, new_cores = comparison.core_counts
        lines.append(
            f"core counts differ ({old_cores} vs {new_cores}): timing and speedup "
            "keys are not comparable and never count as regressions; "
            "identity keys are still gated"
        )
    shown = [
        delta
        for delta in comparison.deltas
        if verbose or delta.regressed or not delta.comparable
    ]
    if shown:
        lines.append(f"{'key':34s} {'old':>12s} {'new':>12s} {'change':>9s}  verdict")
    for delta in shown:
        if not delta.comparable:
            change = "-"
        elif delta.kind == "identity":
            change = "changed" if delta.regressed else "same"
        else:
            # Sign from the reader's perspective: + is worse for timings
            # (slower) and for speedups (lost ratio) alike.
            change = f"{delta.worsening:+.1%}"
        verdict = (
            "REGRESSED" if delta.regressed else "ok" if delta.comparable else "not comparable"
        )
        lines.append(
            f"{delta.key:34s} {delta.old:12.4f} {delta.new:12.4f} "
            f"{change:>9s}  {verdict}"
        )
    for key in comparison.missing_keys:
        lines.append(f"{key:34s} {'-':>12s} {'-':>12s} {'dropped':>9s}  REGRESSED")
    if comparison.added_keys:
        lines.append(
            f"new keys (not compared): {', '.join(comparison.added_keys)}"
        )
    if comparison.ok:
        lines.append("no regressions")
    else:
        lines.append(
            f"{len(comparison.regressions)} regression(s), "
            f"{len(comparison.missing_keys)} dropped key(s)"
        )
    return "\n".join(lines)
