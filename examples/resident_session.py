"""Resident session: answer a stream of community queries on one big graph.

The one-shot ``detect()`` facade pays its full setup on every call — on the
process tier that is a shared-memory broadcast of the CSR arrays plus a
worker-pool fork, on the thread tier the transition-operator build, the
mixing-set search construction and the δ resolution.  For the resident
service shape (one graph, many small queries) ``repro.DetectionSession``
keeps all of that alive across calls while every answer stays bit-identical
to the one-shot facade.

The example detects communities for three separate seed batches, first with
fresh ``detect()`` calls and then through a single session, and prints the
wall-clock for both along with the session's reuse counters.

Run with::

    python examples/resident_session.py
"""

from __future__ import annotations

import math
import time

from repro import DetectionSession, RunConfig, detect, planted_partition_graph
from repro.graphs import ppm_expected_conductance


def main() -> None:
    n, num_blocks = 1024, 4
    p = 2 * math.log(n) ** 2 / n
    q = 1.0 / n
    ppm = planted_partition_graph(n, num_blocks, p, q, seed=0)
    delta = ppm_expected_conductance(n, num_blocks, p, q)
    print(f"PPM graph: n={n}, r={num_blocks}, {ppm.graph.num_edges} edges")

    # A stream of small requests against the same graph.  batch_size covers
    # each request so every call is a single coalesced shard wave; switch
    # executor="process" (and workers=4) to amortise the broadcast + fork.
    requests = [(0, 300, 600, 900), (5, 310, 620, 930), (17, 333, 641, 955)]
    config = RunConfig(seed=0, batch_size=4)

    start = time.perf_counter()
    one_shot = [
        detect(
            ppm.graph,
            backend="batched",
            delta_hint=delta,
            config=config.with_overrides(seeds=request),
        )
        for request in requests
    ]
    one_shot_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with DetectionSession(ppm.graph, config=config, delta_hint=delta) as session:
        resident = [session.detect(seeds=request) for request in requests]
        last = resident[-1].metadata
        print(
            f"\nSession after {session.calls} calls: "
            f"broadcasts={session.broadcasts}, "
            f"prepared_reused={last['session_prepared_reused']}"
        )
    session_seconds = time.perf_counter() - start

    identical = all(
        fresh.detection == cached.detection
        for fresh, cached in zip(one_shot, resident)
    )
    print(f"one-shot: {one_shot_seconds:.4f} s for {len(requests)} requests")
    print(f"session:  {session_seconds:.4f} s for {len(requests)} requests")
    print(f"answers bit-identical: {identical}")

    for request, report in zip(requests, resident):
        sizes = [len(c.community) for c in report.detection.communities]
        print(f"  seeds {request}: community sizes {sizes}")


if __name__ == "__main__":
    main()
