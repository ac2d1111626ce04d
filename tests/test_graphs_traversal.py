"""Tests for BFS, balls, connectivity and hop distance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graphs import (
    Graph,
    ball,
    bfs_tree,
    gnp_random_graph,
    is_connected,
    shortest_path_length,
)


class TestBfs:
    def test_distances_on_path(self, path_graph):
        result = bfs_tree(path_graph, 0)
        assert list(result.distances) == [0, 1, 2, 3, 4]
        assert result.depth() == 4

    def test_parents_form_tree(self, path_graph):
        result = bfs_tree(path_graph, 2)
        assert result.parents[2] == -1
        assert result.parents[1] == 2
        assert result.parents[0] == 1

    def test_max_depth_caps_search(self, path_graph):
        result = bfs_tree(path_graph, 0, max_depth=2)
        assert list(result.reached()) == [0, 1, 2]
        assert result.depth() == 2

    def test_children_and_order(self, path_graph):
        result = bfs_tree(path_graph, 0)
        children = result.children()
        assert children[0] == [1]
        order = result.subtree_order()
        assert order[0] == 0
        assert sorted(order) == list(range(5))

    @pytest.mark.parametrize("max_depth", [None, 0, 2])
    def test_levels_group_reached_vertices_by_depth(self, max_depth):
        graph = gnp_random_graph(60, 0.06, seed=2)
        result = bfs_tree(graph, 0, max_depth=max_depth)
        expected: list[list[int]] = [[] for _ in range(result.depth() + 1)]
        for vertex in result.reached().tolist():
            expected[int(result.distances[vertex])].append(vertex)
        assert result.levels == tuple(tuple(level) for level in expected)
        assert result.levels is result.levels  # built once per tree
        assert result.subtree_order() == [v for level in expected for v in level]

    @pytest.mark.parametrize("max_depth", [None, 0, 2])
    def test_fold_levels_pair_each_level_with_its_parents(self, max_depth):
        graph = gnp_random_graph(60, 0.06, seed=2)
        result = bfs_tree(graph, 0, max_depth=max_depth)
        folds = result.fold_levels
        assert len(folds) == result.depth()
        for (vertices, parents), level in zip(folds, reversed(result.levels[1:])):
            assert vertices.tolist() == list(level)
            assert parents.tolist() == [int(result.parents[v]) for v in level]
            assert vertices.dtype == parents.dtype == np.int64
        assert result.fold_levels is folds  # built once per tree

    def test_unreachable_vertices(self):
        graph = Graph(4, [(0, 1)])
        result = bfs_tree(graph, 0)
        assert result.distances[2] == -1
        assert len(result.reached()) == 2

    def test_invalid_root(self, path_graph):
        with pytest.raises(GraphError):
            bfs_tree(path_graph, 10)

    def test_negative_depth_rejected(self, path_graph):
        with pytest.raises(GraphError):
            bfs_tree(path_graph, 0, max_depth=-1)


class TestBalls:
    def test_ball_growth_on_path(self, path_graph):
        assert ball(path_graph, 2, 0) == frozenset({2})
        assert ball(path_graph, 2, 1) == frozenset({1, 2, 3})
        assert ball(path_graph, 2, 10) == frozenset(range(5))

    def test_ball_negative_radius_rejected(self, path_graph):
        with pytest.raises(GraphError):
            ball(path_graph, 0, -1)


class TestComponentsAndDiameter:
    def test_is_connected(self, two_cliques_graph):
        assert is_connected(two_cliques_graph)
        assert not is_connected(Graph(3, [(0, 1)]))
        assert is_connected(Graph(0, []))
        assert is_connected(Graph(1, []))

    def test_shortest_path_length(self, path_graph):
        assert shortest_path_length(path_graph, 0, 4) == 4
        assert shortest_path_length(path_graph, 4, 4) == 0

    def test_shortest_path_unreachable(self):
        graph = Graph(3, [(0, 1)])
        assert shortest_path_length(graph, 0, 2) == -1
