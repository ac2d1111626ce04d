"""Tests for the CONGEST simulator: messages, network, BFS, aggregation primitives."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.congest import (
    CongestNetwork,
    Message,
    broadcast,
    convergecast,
    distributed_bfs,
    distributed_bfs_counted,
    message_size_in_words,
    select_k_smallest,
    tree_edge_count,
)
from repro.exceptions import BandwidthExceededError, SimulationError
from repro.graphs import Graph, bfs_tree


class TestMessage:
    def test_scalar_payload_sizes(self):
        assert message_size_in_words(None) == 1
        assert message_size_in_words(3.5) == 1
        assert message_size_in_words((1, 2)) == 2
        assert message_size_in_words({"a": 1}) == 2

    def test_unknown_payload_rejected(self):
        with pytest.raises(SimulationError):
            message_size_in_words(object())

    def test_oversized_payload_rejected(self):
        with pytest.raises(SimulationError):
            Message(0, 1, "big", payload=(1, 2, 3, 4, 5, 6))

    def test_size_in_words_includes_tag(self):
        message = Message(0, 1, "x", payload=2.0)
        assert message.size_in_words() == 2


class TestCongestNetwork:
    def test_round_and_message_counting(self, triangle_graph):
        network = CongestNetwork(triangle_graph)
        network.begin_round()
        network.send(0, 1, "ping")
        network.send(1, 2, "ping")
        delivered = network.end_round()
        assert network.rounds == 1
        assert network.messages == 2
        assert set(delivered) == {1, 2}
        assert network.cost_report().messages_by_kind == {"ping": 2}

    def test_send_requires_open_round(self, triangle_graph):
        network = CongestNetwork(triangle_graph)
        with pytest.raises(SimulationError):
            network.send(0, 1, "ping")

    def test_send_over_non_edge_rejected(self, path_graph):
        network = CongestNetwork(path_graph)
        network.begin_round()
        with pytest.raises(SimulationError):
            network.send(0, 4, "ping")

    def test_bandwidth_limit_one_message_per_edge(self, triangle_graph):
        network = CongestNetwork(triangle_graph)
        network.begin_round()
        network.send(0, 1, "a")
        with pytest.raises(BandwidthExceededError):
            network.send(0, 1, "b")
        # The reverse direction is a separate channel.
        network.send(1, 0, "c")
        network.end_round()

    def test_double_begin_round_rejected(self, triangle_graph):
        network = CongestNetwork(triangle_graph)
        network.begin_round()
        with pytest.raises(SimulationError):
            network.begin_round()

    def test_charge_counters(self, triangle_graph):
        network = CongestNetwork(triangle_graph)
        network.charge_rounds(5)
        network.charge_messages("bulk", 12)
        report = network.cost_report()
        assert report.rounds == 5
        assert report.messages == 12
        network.reset_costs()
        assert network.rounds == 0

    def test_cost_report_addition(self, triangle_graph):
        network = CongestNetwork(triangle_graph)
        network.charge_messages("a", 2)
        a = network.cost_report()
        network.charge_messages("b", 3)
        combined = a + network.cost_report()
        assert combined.messages == 2 + 5

    def test_cost_report_sum_builtin(self, triangle_graph):
        """sum() starts from 0; __radd__ must absorb it so phase reports aggregate."""
        network = CongestNetwork(triangle_graph)
        reports = []
        for kind, count in (("a", 2), ("b", 3), ("a", 4)):
            network.reset_costs()
            network.charge_rounds(1)
            network.charge_messages(kind, count)
            reports.append(network.cost_report())
        total = sum(reports)
        assert total.rounds == 3
        assert total.messages == 9
        assert total.messages_by_kind == {"a": 6, "b": 3}
        assert sum(reports[:1]) == reports[0]

    def test_cost_report_foreign_addition_raises_type_error(self, triangle_graph):
        report = CongestNetwork(triangle_graph).cost_report()
        with pytest.raises(TypeError):
            report + 1
        with pytest.raises(TypeError):
            1 + report
        with pytest.raises(TypeError):
            report + "rounds"
        # Only sum()'s int 0 is absorbed — zero-equal foreigners are not.
        with pytest.raises(TypeError):
            0.0 + report
        with pytest.raises(TypeError):
            False + report

    def test_empty_graph_rejected(self):
        with pytest.raises(SimulationError):
            CongestNetwork(Graph(0, []))


class TestDistributedBfs:
    def test_matches_sequential_bfs(self, two_cliques_graph):
        network = CongestNetwork(two_cliques_graph)
        distributed = distributed_bfs(network, 0)
        sequential = bfs_tree(two_cliques_graph, 0)
        assert np.array_equal(distributed.distances, sequential.distances)

    def test_counted_variant_same_result_and_cost(self, two_cliques_graph):
        message_network = CongestNetwork(two_cliques_graph)
        counted_network = CongestNetwork(two_cliques_graph)
        a = distributed_bfs(message_network, 3)
        b = distributed_bfs_counted(counted_network, 3)
        assert np.array_equal(a.distances, b.distances)
        assert message_network.rounds == counted_network.rounds
        assert message_network.messages == counted_network.messages

    def test_round_count_is_depth_plus_one(self, path_graph):
        network = CongestNetwork(path_graph)
        result = distributed_bfs(network, 0)
        assert network.rounds == result.depth() + 1

    def test_max_depth_respected(self, path_graph):
        network = CongestNetwork(path_graph)
        result = distributed_bfs(network, 0, max_depth=2)
        assert result.depth() == 2

    def test_invalid_root(self, path_graph):
        network = CongestNetwork(path_graph)
        with pytest.raises(SimulationError):
            distributed_bfs(network, 99)


class TestAggregation:
    def test_convergecast_sum_matches_numpy(self, two_cliques_graph):
        network = CongestNetwork(two_cliques_graph)
        tree = bfs_tree(two_cliques_graph, 0)
        values = np.arange(10, dtype=float)
        total = convergecast(network, tree, values, combine=np.add)
        assert total == pytest.approx(values.sum())

    def test_convergecast_message_level_same_value_and_cost(self, two_cliques_graph):
        tree = bfs_tree(two_cliques_graph, 0)
        values = np.arange(10, dtype=float)
        fast = CongestNetwork(two_cliques_graph)
        slow = CongestNetwork(two_cliques_graph)
        a = convergecast(fast, tree, values, combine=np.maximum, count_only=True)
        b = convergecast(slow, tree, values, combine=np.maximum, count_only=False)
        assert a == b == 9.0
        assert fast.rounds == slow.rounds
        assert fast.messages == slow.messages

    def test_broadcast_costs(self, two_cliques_graph):
        tree = bfs_tree(two_cliques_graph, 0)
        network = CongestNetwork(two_cliques_graph)
        broadcast(network, tree, payload=1.0, count_only=True)
        assert network.rounds == tree.depth()
        assert network.messages == tree_edge_count(tree)

    def test_convergecast_shape_check(self, two_cliques_graph):
        network = CongestNetwork(two_cliques_graph)
        tree = bfs_tree(two_cliques_graph, 0)
        with pytest.raises(SimulationError):
            convergecast(network, tree, np.zeros(3), combine=np.maximum)

    def test_convergecast_combine_must_be_a_binary_ufunc(self, two_cliques_graph):
        network = CongestNetwork(two_cliques_graph)
        tree = bfs_tree(two_cliques_graph, 0)
        for combine in (max, lambda a, b: a + b, np.negative):
            with pytest.raises(SimulationError, match="binary numpy ufunc"):
                convergecast(network, tree, np.zeros(10), combine=combine)

    @pytest.mark.parametrize(
        "combine, fold",
        [(np.add, lambda a, b: a + b), (np.minimum, min), (np.maximum, max)],
        ids=["add", "minimum", "maximum"],
    )
    def test_convergecast_is_the_level_order_left_fold_bit_for_bit(self, combine, fold):
        # Three levels under the root; every parent has many children.  On
        # this draw, folding each level's children in descending id changes
        # the root's sum.
        rng = np.random.default_rng(4)
        hubs, middle, leaves = range(1, 9), range(9, 201), range(201, 600)
        edges = [(0, hub) for hub in hubs]
        edges += [(int(rng.choice(hubs)), vertex) for vertex in middle]
        edges += [(int(rng.choice(middle)), vertex) for vertex in leaves]
        graph = Graph(600, edges)
        tree = bfs_tree(graph, 0)
        values = 10.0 ** rng.uniform(-300, 3, graph.num_vertices)
        # The oracle: each parent folds its children in ascending id, one
        # level at a time from the deepest, in Python floats.
        partial = values.tolist()
        parents = tree.parents.tolist()
        for level in reversed(tree.levels[1:]):
            for vertex in level:
                partial[parents[vertex]] = fold(partial[parents[vertex]], partial[vertex])
        fast = convergecast(CongestNetwork(graph), tree, values, combine, count_only=True)
        slow = convergecast(CongestNetwork(graph), tree, values, combine, count_only=False)
        assert fast.hex() == slow.hex() == partial[tree.root].hex()

    def test_select_k_smallest_matches_sort(self, small_gnp_graph):
        network = CongestNetwork(small_gnp_graph)
        tree = bfs_tree(small_gnp_graph, 0)
        rng = np.random.default_rng(0)
        values = rng.random(small_gnp_graph.num_vertices)
        selected, total, iterations = select_k_smallest(network, tree, values, 10)
        expected = np.sort(values)[:10].sum()
        assert total == pytest.approx(expected)
        assert len(selected) == 10
        assert iterations >= 1
        assert network.rounds > 0

    def test_select_k_smallest_message_level_agrees(self, two_cliques_graph):
        tree = bfs_tree(two_cliques_graph, 0)
        rng = np.random.default_rng(1)
        values = rng.random(10)
        fast = CongestNetwork(two_cliques_graph)
        slow = CongestNetwork(two_cliques_graph)
        a, sum_a, _ = select_k_smallest(fast, tree, values, 4, count_only=True)
        b, sum_b, _ = select_k_smallest(slow, tree, values, 4, count_only=False)
        assert np.array_equal(a, b)
        assert sum_a == pytest.approx(sum_b)

    def test_select_k_validation(self, two_cliques_graph):
        network = CongestNetwork(two_cliques_graph)
        tree = bfs_tree(two_cliques_graph, 0)
        with pytest.raises(SimulationError):
            select_k_smallest(network, tree, np.zeros(10), 0)
        with pytest.raises(SimulationError):
            select_k_smallest(network, tree, np.zeros(10), 11)

    @given(
        num_vertices=st.integers(2, 40),
        root=st.integers(0, 39),
        max_depth=st.sampled_from([None, 1, 2]),
        values=st.lists(
            st.sampled_from([0.0, -0.0, 0.5, 1.0, np.inf, np.nan]), min_size=40, max_size=40
        ),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_select_k_smallest_matches_the_lexsort_oracle(
        self, num_vertices, root, max_depth, values, data
    ):
        # A path, so a depth cap leaves part of the graph unreached; few
        # distinct values, so most selections cut through a tie.
        graph = Graph(num_vertices, [(i, i + 1) for i in range(num_vertices - 1)])
        tree = bfs_tree(graph, root % num_vertices, max_depth=max_depth)
        reached = tree.reached()
        k = data.draw(st.integers(1, len(reached)))
        values = np.array(values[:num_vertices])
        reached_values = values[reached]
        expected = np.sort(reached[np.lexsort((reached, reached_values))[:k]])
        selected, total, _ = select_k_smallest(CongestNetwork(graph), tree, values, k)
        assert selected.dtype == expected.dtype
        assert np.array_equal(selected, expected)
        assert np.array_equal(total, float(values[expected].sum()), equal_nan=True)
