"""Shared pytest fixtures: small deterministic graphs used across the test suite."""

from __future__ import annotations

import math

import pytest

from repro.api import RunConfig, detect
from repro.graphs import Graph, gnp_random_graph, planted_partition_graph


@pytest.fixture(scope="session")
def triangle_graph() -> Graph:
    """A 3-cycle: the smallest connected non-bipartite graph."""
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture(scope="session")
def path_graph() -> Graph:
    """A 5-vertex path: tree structure with known distances."""
    return Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture(scope="session")
def two_cliques_graph() -> Graph:
    """Two 5-cliques joined by a single bridge edge: an obvious 2-community graph."""
    edges = []
    for offset in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                edges.append((offset + i, offset + j))
    edges.append((0, 5))
    return Graph(10, edges)


@pytest.fixture(scope="session")
def small_gnp_graph() -> Graph:
    """A 128-vertex G(n, p) graph above the connectivity threshold."""
    n = 128
    return gnp_random_graph(n, 3 * math.log(n) / n, seed=42)


@pytest.fixture(scope="session")
def small_ppm():
    """A 256-vertex, 2-block PPM instance with a clear community structure."""
    n = 256
    p = 3 * math.log(n) ** 2 / n
    q = 1.0 / n
    return planted_partition_graph(n, 2, p, q, seed=7)


@pytest.fixture(scope="session")
def medium_ppm():
    """A 512-vertex, 4-block PPM instance (denser, well separated)."""
    n = 512
    p = 2 * math.log(n) ** 2 / n
    q = p / (1.2 * math.log2(n) ** 2)
    return planted_partition_graph(n, 4, p, q, seed=13)


@pytest.fixture(scope="session")
def scalar_community():
    """``run(graph, seed_vertex, params=None, delta_hint=None)``: one seed's
    :class:`~repro.core.result.CommunityResult` from the ``"scalar"``
    backend — the reference every other detection path is compared to."""

    def run(graph, seed_vertex, params=None, delta_hint=None):
        config = RunConfig(seeds=(seed_vertex,))
        return detect(graph, "scalar", params, config, delta_hint).detection.communities[0]

    return run


@pytest.fixture()
def first_split_fails(monkeypatch):
    """Make the service's first wave raise an untyped ``RuntimeError``.

    The fault sits in the report slicing the dispatcher runs after every
    wave; later waves slice normally.
    """
    import repro.service
    from repro.api import split_batched_report

    calls = []

    def flaky(report):
        calls.append(report)
        if len(calls) == 1:
            raise RuntimeError("injected split failure")
        return split_batched_report(report)

    monkeypatch.setattr(repro.service, "split_batched_report", flaky)
