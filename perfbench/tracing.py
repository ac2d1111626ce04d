"""Layer spans recorded from outside the program.

:class:`LayerTrace` wraps the public functions each layer exposes -- the
walk step, the batched mixing-set search, the stopping rule and the
service's report slicing -- for the duration of a ``with trace.installed():``
block, and restores the originals on exit.  Nothing inside ``src/`` is
changed; kernels that run in worker processes or in the server child are
never wrapped (the fork happens before installation, or the code runs in
another interpreter) and are split with the timings the program returns.

Span names double as per-layer metric names, so they must stay stable.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from .common import Outcome, median


class LayerTrace:
    """Accumulated busy seconds and counts per layer span.

    One instance per traced pass.  Only one thread calls into a wrapped
    layer at a time in every pass the benchmark traces (thread tier with
    ``workers=1``, or the service's single dispatcher thread), so the plain
    dict updates need no lock.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}

    def add(self, name: str, seconds: float = 0.0, count: int = 0) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.counts[name] = self.counts.get(name, 0) + count

    def _timed(
        self, span: str, func: Callable[..., Any], after: Callable[..., None] | None = None
    ) -> Callable[..., Any]:
        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            result = func(*args, **kwargs)
            self.add(span, time.perf_counter() - start, 1)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _count_steps(self, _result: object, _walk: object, count: int = 1) -> None:
        self.add("randomwalk.steps", count=count)

    def _count_lanes(self, results: list[Any], *_args: object, **_kwargs: object) -> None:
        self.add("core.mixing_set.lanes", count=len(results))
        self.add(
            "core.mixing_set.sizes_examined",
            count=sum(item.sizes_examined for item in results),
        )

    @contextmanager
    def installed(self, *, kernels: bool = True, split: bool = False) -> Iterator["LayerTrace"]:
        """Wrap the layer entry points; restore the originals on exit.

        ``kernels`` wraps the walk step, the search and the stopping rule
        (class attributes, so every instance in this process is traced);
        ``split`` wraps ``split_batched_report`` where :mod:`repro.service`
        looks it up.
        """
        import repro.service
        from repro.core.mixing_set import BatchedMixingSetSearch
        from repro.core.stopping import GrowthStoppingRule
        from repro.randomwalk.batched import BatchedWalkDistribution

        patches: list[tuple[object, str, Any]] = []
        if kernels:
            patches += [
                (BatchedWalkDistribution, "step", ("randomwalk.step", self._count_steps)),
                (
                    BatchedMixingSetSearch,
                    "largest_mixing_sets",
                    ("core.mixing_set.search", self._count_lanes),
                ),
                (GrowthStoppingRule, "observe", ("core.stopping.observe", None)),
            ]
        if split:
            patches.append((repro.service, "split_batched_report", ("api.split", None)))
        originals = []
        try:
            for owner, attribute, (span, after) in patches:
                original = getattr(owner, attribute)
                originals.append((owner, attribute, original))
                setattr(owner, attribute, self._timed(span, original, after))
            yield self
        finally:
            for owner, attribute, original in reversed(originals):
                setattr(owner, attribute, original)


#: Untraced/traced pairs timed by :func:`measure_kernels`.
ROUNDS = 3


def measure_kernels(out: Outcome, call: Callable[[], Any]) -> list[Any]:
    """Time an in-process ``detect()`` call untraced and traced, alternately.

    One warm-up call comes first, so neither side pays the process's
    cold-start costs; then :data:`ROUNDS` untraced/traced pairs.  Puts the
    kernel-layer metrics of the last traced call and the tracing overhead
    (median traced / median untraced wall time) into ``out``; returns
    every result for the caller's output checks.
    """
    results = [call()]
    untraced_times, traced_times = [], []
    for _ in range(ROUNDS):
        began = time.perf_counter()
        results.append(call())
        untraced_times.append(time.perf_counter() - began)
        layers = LayerTrace()
        with layers.installed(kernels=True):
            began = time.perf_counter()
            results.append(call())
            traced_seconds = time.perf_counter() - began
        traced_times.append(traced_seconds)
    seconds, counts = layers.seconds, layers.counts
    step = seconds.get("randomwalk.step", 0.0)
    search = seconds.get("core.mixing_set.search", 0.0)
    observe = seconds.get("core.stopping.observe", 0.0)
    calls = counts.get("core.mixing_set.search", 0)
    out.put("randomwalk.step_s", step, counts.get("randomwalk.step", 0))
    out.put("randomwalk.steps", counts.get("randomwalk.steps", 0))
    out.put("core.mixing_set.search_s", search, calls)
    out.put("core.mixing_set.calls", calls)
    out.put("core.mixing_set.lanes", counts.get("core.mixing_set.lanes", 0), calls)
    out.put("core.mixing_set.sizes_examined", counts.get("core.mixing_set.sizes_examined", 0), calls)
    out.put("core.stopping.observe_s", observe, counts.get("core.stopping.observe", 0))
    out.put("core.batched.unaccounted_s", traced_seconds - step - search - observe)
    out.put("trace.overhead_ratio", median(traced_times) / median(untraced_times), ROUNDS)
    return results
