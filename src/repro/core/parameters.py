"""Configuration of the CDRW algorithm (Algorithm 1 of the paper).

Every tunable named by the paper is exposed here with its paper default:

* the mixing threshold ``1/(2e)`` (Algorithm 1 line 15),
* the candidate-size growth factor ``1 + 1/(8e)`` (line 12),
* the initial candidate size ``R = log n`` (line 6 — the paper assumes every
  community has at least ``log n`` vertices),
* the walk-length budget ``O(log n)`` (line 8), and
* the stopping parameter ``δ`` which the paper sets to the graph conductance
  ``Φ_G`` (line 18, Section III-A).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Literal

from ..exceptions import AlgorithmError
from ..graphs.graph import Graph
from ..graphs.properties import graph_conductance_estimate
from ..utils import GROWTH_FACTOR, MIXING_THRESHOLD, log_size

__all__ = ["CDRWParameters"]

SizeSchedule = Literal["geometric", "linear"]


@dataclass(frozen=True)
class CDRWParameters:
    """Parameters of the CDRW community detection algorithm.

    Attributes
    ----------
    mixing_threshold:
        The local-mixing acceptance threshold; the sum of the ``|S|`` smallest
        ``x_u`` values must stay below it.  Paper value: ``1/(2e)``.
    growth_factor:
        Multiplicative growth of the candidate mixing-set size.  Paper value:
        ``1 + 1/(8e)``.
    delta:
        Stopping parameter: detection stops when the largest mixing set grows
        by less than a ``(1 + delta)`` factor between consecutive walk
        lengths.  ``None`` means "derive it from the graph" (the paper sets
        ``δ = Φ_G``); see :meth:`resolve_delta`.
    initial_size:
        Initial candidate size ``R``.  ``None`` means ``log n`` (paper value).
    max_walk_length:
        Walk-length budget.  ``None`` means ``walk_length_factor · ⌈ln n⌉``.
    walk_length_factor:
        Multiplier used when ``max_walk_length`` is ``None``.  The paper's
        budget is ``O(log n)``; the default constant 4 comfortably exceeds
        the mixing time of the random graphs studied.
    size_schedule:
        ``"geometric"`` (paper) or ``"linear"`` (exact but slower; used in
        tests to validate the geometric search).
    stop_at_first_failure:
        When ``True`` the candidate-size scan ascends and stops at the first
        size that violates the mixing condition (the literal reading of
        Algorithm 1 line 12-17).  The default ``False`` keeps the largest
        satisfying size of the whole schedule, which is required on dense
        graphs where sizes below the seed's degree never mix (see README.md,
        "Deviations from the paper"); it is found by scanning from the
        largest size down to the first accepted one, and the reported cost
        is still the whole schedule.
    min_mass:
        Minimum walk probability a candidate set must hold to be accepted.
        ``None`` (default) uses ``1 − 2·mixing_threshold``; Definition 2
        implies a true local mixing set holds mass at least ``1 − ε``, a
        property the localized ``µ'(S)`` proxy does not preserve on its own
        (see README.md, "Deviations from the paper").
    min_delta:
        Lower bound applied to the resolved δ so the stopping rule never
        degenerates to "stop only on exactly equal sizes" when the analytic
        conductance is extremely small (e.g. a pure ``G(n, p)`` graph where
        ``Φ`` of the planted partition is 0).
    lazy_walk:
        Use the lazy random walk instead of the simple walk.
    """

    mixing_threshold: float = MIXING_THRESHOLD
    growth_factor: float = GROWTH_FACTOR
    delta: float | None = None
    initial_size: int | None = None
    max_walk_length: int | None = None
    walk_length_factor: int = 4
    size_schedule: SizeSchedule = "geometric"
    stop_at_first_failure: bool = False
    min_mass: float | None = None
    min_delta: float = 0.02
    lazy_walk: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.mixing_threshold < 2.0):
            raise AlgorithmError(
                f"mixing_threshold must be in (0, 2), got {self.mixing_threshold}"
            )
        if self.growth_factor <= 1.0:
            raise AlgorithmError(f"growth_factor must exceed 1, got {self.growth_factor}")
        if self.delta is not None and self.delta < 0.0:
            raise AlgorithmError(f"delta must be non-negative, got {self.delta}")
        if self.initial_size is not None and self.initial_size < 1:
            raise AlgorithmError(f"initial_size must be >= 1, got {self.initial_size}")
        if self.max_walk_length is not None and self.max_walk_length < 1:
            raise AlgorithmError(f"max_walk_length must be >= 1, got {self.max_walk_length}")
        if self.walk_length_factor < 1:
            raise AlgorithmError(f"walk_length_factor must be >= 1, got {self.walk_length_factor}")
        if self.size_schedule not in ("geometric", "linear"):
            raise AlgorithmError(f"unknown size_schedule: {self.size_schedule!r}")
        if self.min_mass is not None and not (0.0 <= self.min_mass <= 1.0):
            raise AlgorithmError(f"min_mass must be in [0, 1], got {self.min_mass}")
        if self.min_delta < 0.0:
            raise AlgorithmError(f"min_delta must be non-negative, got {self.min_delta}")

    # ------------------------------------------------------------------
    # Per-graph resolution
    # ------------------------------------------------------------------
    def resolve_initial_size(self, graph: Graph) -> int:
        """Return the initial candidate size ``R`` for ``graph`` (``log n`` default)."""
        if self.initial_size is not None:
            return min(self.initial_size, max(1, graph.num_vertices))
        return min(log_size(graph.num_vertices), max(1, graph.num_vertices))

    def resolve_max_walk_length(self, graph: Graph) -> int:
        """Return the walk-length budget for ``graph`` (``O(log n)`` default)."""
        if self.max_walk_length is not None:
            return self.max_walk_length
        n = max(graph.num_vertices, 2)
        return max(4, self.walk_length_factor * int(math.ceil(math.log(n))))

    def resolve_delta(self, graph: Graph, delta_hint: float | None = None) -> float:
        """Return the stopping parameter δ for ``graph``.

        Resolution order: explicit ``delta`` on the parameters, then the
        caller-provided ``delta_hint`` (e.g. the analytic PPM conductance),
        then a spectral sweep-cut estimate of ``Φ_G``.  The result is clamped
        from below by ``min_delta``.
        """
        if self.delta is not None:
            value = self.delta
        elif delta_hint is not None:
            if delta_hint < 0.0:
                raise AlgorithmError(f"delta_hint must be non-negative, got {delta_hint}")
            value = delta_hint
        else:
            value = graph_conductance_estimate(graph)
        return max(value, self.min_delta)

    def with_overrides(self, **changes: object) -> "CDRWParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)
