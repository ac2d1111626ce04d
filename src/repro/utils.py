"""Shared utilities: RNG handling, numeric schedules and small math helpers.

These helpers are used across the graph generators, the CDRW core and the
experiment harness.  They are deliberately dependency-light (numpy only).
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ReproError

__all__ = [
    "as_rng",
    "spawn_rngs",
    "log_size",
    "geometric_sizes",
    "linear_sizes",
    "MIXING_THRESHOLD",
    "GROWTH_FACTOR",
    "ceil_log2",
    "harmonic_mean",
    "safe_ratio",
    "stable_hash",
]

#: The mixing condition threshold 1/(2e) used throughout the paper
#: (Definition 2 and Algorithm 1, line 15).
MIXING_THRESHOLD: float = 1.0 / (2.0 * math.e)

#: Candidate mixing-set sizes grow by this factor (Algorithm 1, line 12);
#: the paper uses (1 + 1/8e) instead of doubling so that the geometric
#: search cannot skip over the true largest mixing set.
GROWTH_FACTOR: float = 1.0 + 1.0 / (8.0 * math.e)


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may already be a generator (returned unchanged), an integer seed,
    or ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | np.random.Generator | None, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent child generators from ``seed``.

    Used by the experiment runner so that trials are reproducible yet
    statistically independent.
    """
    if count < 0:
        raise ReproError(f"cannot spawn a negative number of generators: {count}")
    root = as_rng(seed)
    return [np.random.default_rng(s) for s in root.bit_generator.seed_seq.spawn(count)]


def log_size(n: int) -> int:
    """Return ``max(1, round(ln n))`` — the paper's initial set size ``R = log n``.

    The natural logarithm is used, matching the analysis (the paper never
    distinguishes log bases; constants are absorbed).
    """
    if n < 1:
        raise ReproError(f"graph size must be positive, got {n}")
    return max(1, int(round(math.log(max(n, 2)))))


def geometric_sizes(start: int, stop: int, factor: float = GROWTH_FACTOR) -> list[int]:
    """Return the candidate mixing-set sizes ``start, start*f, start*f^2, ... <= stop``.

    Consecutive duplicates produced by integer rounding are removed and the
    final value ``stop`` is always included so that the full vertex set is
    always a candidate (Algorithm 1, line 12 iterates up to ``n``).
    """
    if start < 1:
        raise ReproError(f"candidate size schedule must start at >= 1, got {start}")
    if stop < start:
        return [stop] if stop >= 1 else []
    if factor <= 1.0:
        raise ReproError(f"growth factor must exceed 1, got {factor}")
    sizes: list[int] = []
    value = float(start)
    while value < stop:
        size = int(math.floor(value))
        if not sizes or size > sizes[-1]:
            sizes.append(size)
        value *= factor
        # Rounding can stall the schedule for very small sizes; force progress.
        if int(math.floor(value)) <= size:
            value = size + 1
    if not sizes or sizes[-1] != stop:
        sizes.append(stop)
    return sizes


def linear_sizes(start: int, stop: int, step: int = 1) -> list[int]:
    """Return the linear candidate schedule ``start, start+step, ..., stop``.

    Provided as the slower exact alternative mentioned in the paper (growing
    the candidate size by one each time); useful for testing the geometric
    schedule against ground truth.
    """
    if step < 1:
        raise ReproError(f"step must be >= 1, got {step}")
    if stop < start:
        return [stop] if stop >= 1 else []
    sizes = list(range(start, stop + 1, step))
    if sizes[-1] != stop:
        sizes.append(stop)
    return sizes


def ceil_log2(n: int) -> int:
    """Exact ``⌈log₂ n⌉`` for ``n ≥ 1`` in integer arithmetic.

    ``(n − 1).bit_length()`` never passes through a float, so cost-accounting
    round charges built on it stay exact for arbitrarily large ``n`` (unlike
    ``ceil(log2(float(n)))``).
    """
    if n < 1:
        raise ReproError(f"ceil_log2 requires n >= 1, got {n}")
    return (n - 1).bit_length()


def harmonic_mean(a: float, b: float) -> float:
    """Harmonic mean of two non-negative numbers; 0 if either is 0.

    This is exactly the F-score combination of precision and recall.
    """
    if a < 0 or b < 0:
        raise ReproError(f"harmonic mean requires non-negative inputs, got {a}, {b}")
    if a + b == 0:
        return 0.0
    # Divide before multiplying: the naive 2ab/(a+b) underflows the a·b
    # product into subnormals when both inputs are tiny (e.g. a ~ 1e-102,
    # b ~ 1e-221), inflating the result past the mathematical bound
    # 2·min(a, b).  low/(low+high) ≤ 1/2 keeps every intermediate in normal
    # range, and ordering the operands keeps the function bit-commutative.
    low, high = (a, b) if a <= b else (b, a)
    return 2.0 * high * (low / (low + high))


def safe_ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """Return ``numerator / denominator`` or ``default`` when the denominator is 0."""
    if denominator == 0:
        return default
    return numerator / denominator


def stable_hash(value: int, modulus: int) -> int:
    """A deterministic integer hash onto ``range(modulus)``.

    Used by the k-machine random-vertex-partition implementation: the paper
    implements RVP "through hashing: each vertex (ID) is hashed to one of the
    k machines", so any machine that knows a vertex ID also knows its home
    machine.  Python's builtin ``hash`` is salted per-process, hence this
    splitmix64-style mix instead.
    """
    if modulus < 1:
        raise ReproError(f"modulus must be >= 1, got {modulus}")
    x = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x = x ^ (x >> 31)
    return int(x % modulus)
