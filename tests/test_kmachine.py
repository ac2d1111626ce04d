"""Tests for the k-machine model: partition, simulator, conversion theorem, CDRW."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.api import RunConfig, detect
from repro.core import CDRWParameters
from repro.exceptions import MachineError
from repro.graphs import planted_partition_graph, ppm_expected_conductance
from repro.kmachine import (
    KMachineNetwork,
    RandomVertexPartition,
    cdrw_kmachine_round_bound,
    conversion_theorem_rounds,
    detect_community_kmachine,
    dominant_term,
)
from repro.metrics import average_f_score


class TestRandomVertexPartition:
    def test_hash_method_deterministic(self):
        a = RandomVertexPartition(100, 8, method="hash")
        b = RandomVertexPartition(100, 8, method="hash")
        assert np.array_equal(a.assignment, b.assignment)

    def test_random_method_uses_seed(self):
        a = RandomVertexPartition(100, 8, method="random", seed=1)
        b = RandomVertexPartition(100, 8, method="random", seed=1)
        c = RandomVertexPartition(100, 8, method="random", seed=2)
        assert np.array_equal(a.assignment, b.assignment)
        assert not np.array_equal(a.assignment, c.assignment)

    def test_home_machine_and_vertices_of_consistent(self):
        partition = RandomVertexPartition(50, 4, method="hash")
        for machine in range(4):
            for vertex in partition.vertices_of(machine):
                assert partition.home_machine(int(vertex)) == machine

    def test_assignments_within_range(self):
        partition = RandomVertexPartition(200, 7, method="hash")
        assert partition.assignment.min() >= 0
        assert partition.assignment.max() < 7

    def test_balance_report(self, small_gnp_graph):
        partition = RandomVertexPartition(small_gnp_graph.num_vertices, 4, method="hash")
        report = partition.balance_report(small_gnp_graph)
        assert sum(report.vertices_per_machine) == small_gnp_graph.num_vertices
        assert sum(report.edges_per_machine) == small_gnp_graph.volume
        assert report.max_vertex_imbalance < 2.0

    def test_validation(self):
        with pytest.raises(MachineError):
            RandomVertexPartition(10, 0)
        with pytest.raises(MachineError):
            RandomVertexPartition(10, 2, method="roundrobin")
        partition = RandomVertexPartition(10, 2)
        with pytest.raises(MachineError):
            partition.home_machine(20)
        with pytest.raises(MachineError):
            partition.vertices_of(5)


class TestKMachineNetwork:
    def test_link_loads_and_local_messages(self):
        partition = RandomVertexPartition(4, 2, method="random", seed=0)
        network = KMachineNetwork(partition)
        assignment = partition.assignment
        sources = np.array([0, 1, 2, 3])
        targets = np.array([1, 2, 3, 0])
        loads, inter, local = network.link_loads(sources, targets)
        assert inter + local == 4
        assert loads.sum() == inter

    def test_route_congest_round_counts(self):
        partition = RandomVertexPartition(10, 2, method="random", seed=3)
        network = KMachineNetwork(partition)
        sources = np.arange(10)
        targets = (np.arange(10) + 1) % 10
        charged = network.route_congest_round(sources, targets)
        cost = network.cost()
        assert cost.congest_rounds_routed == 1
        assert cost.rounds == charged
        assert cost.inter_machine_messages + cost.local_messages == 10

    def test_repeat_multiplies_costs(self):
        partition = RandomVertexPartition(10, 2, method="random", seed=3)
        network = KMachineNetwork(partition)
        sources = np.arange(10)
        targets = (np.arange(10) + 1) % 10
        once = network.route_congest_round(sources, targets, repeat=1)
        network.reset()
        thrice = network.route_congest_round(sources, targets, repeat=3)
        assert thrice == 3 * once

    def test_rounds_for_loads_exact_integer_ceiling(self):
        """Round charges must use exact integer ceiling division, not np.ceil."""
        partition = RandomVertexPartition(4, 2)
        network = KMachineNetwork(partition, bandwidth_messages=3)
        for heaviest, expected in ((1, 1), (3, 1), (4, 2), (6, 2), (7, 3)):
            loads = np.array([[0, heaviest], [0, 0]], dtype=np.int64)
            assert network.rounds_for_loads(loads) == expected

    def test_rounds_for_loads_exact_beyond_float_precision(self):
        # 2^53 + 1 is the first integer a float64 quotient cannot represent:
        # np.ceil((2**53 + 1) / 1.0) charged one round too few.
        heaviest = 2**53 + 1
        partition = RandomVertexPartition(4, 2)
        unit = KMachineNetwork(partition, bandwidth_messages=1)
        loads = np.array([[0, heaviest], [0, 0]], dtype=np.int64)
        assert unit.rounds_for_loads(loads) == heaviest
        wide = KMachineNetwork(partition, bandwidth_messages=3)
        assert wide.rounds_for_loads(loads) == -(-heaviest // 3)

    def test_all_local_messages_cost_zero_rounds(self):
        partition = RandomVertexPartition(4, 1, method="hash")
        network = KMachineNetwork(partition)
        rounds = network.route_congest_round(np.array([0, 1]), np.array([1, 0]))
        assert rounds == 0
        assert network.cost().local_messages == 2

    def test_validation(self):
        partition = RandomVertexPartition(4, 2)
        with pytest.raises(MachineError):
            KMachineNetwork(partition, bandwidth_messages=0)
        network = KMachineNetwork(partition)
        with pytest.raises(MachineError):
            network.link_loads(np.array([0, 1]), np.array([0]))
        with pytest.raises(MachineError):
            network.route_congest_round(np.array([0]), np.array([1]), repeat=-1)


class TestFloodingReconciliation:
    """One dense flooding round of a walk step on the hash partition.

    Every arc carries one message per walk step.  The simulator's
    accounting of that pattern must match an independent numpy count of
    the arcs that cross the partition.
    """

    @pytest.mark.parametrize("machines", (2, 4))
    def test_link_loads_match_independent_crossing_count(self, small_ppm, machines):
        graph = small_ppm.graph
        partition = RandomVertexPartition(graph.num_vertices, machines, method="hash")
        assignment = partition.assignment
        _, heads, _ = graph.csr_arrays()
        tails = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees())
        crossing = assignment[tails] != assignment[heads]
        expected_loads = np.bincount(
            assignment[tails[crossing]] * machines + assignment[heads[crossing]],
            minlength=machines * machines,
        ).reshape(machines, machines)

        network = KMachineNetwork(partition)
        loads, inter, local = network.link_loads(tails, heads)
        assert inter == int(crossing.sum()) > 0
        assert local == int((~crossing).sum())
        assert inter + local == graph.volume
        assert np.array_equal(loads, expected_loads)
        assert network.rounds_for_loads(loads) == int(expected_loads.max())

        steps = 3
        charged = network.route_congest_round(tails, heads, repeat=steps)
        cost = network.cost()
        assert charged == cost.rounds == int(expected_loads.max()) * steps
        assert cost.inter_machine_messages == inter * steps
        assert cost.local_messages == local * steps


class TestConversionTheorem:
    def test_formula(self):
        value = conversion_theorem_rounds(messages=1000, rounds=10, max_degree=5, num_machines=10)
        assert value == pytest.approx(1000 / 100 + 5 * 10 / 10)

    def test_polylog_factor(self):
        base = conversion_theorem_rounds(100, 1, 1, 2)
        with_log = conversion_theorem_rounds(100, 1, 1, 2, include_polylog=True, n=1024)
        assert with_log > base

    def test_dominant_term(self):
        assert dominant_term(messages=10**6, rounds=10, max_degree=10, num_machines=10) == "messages"
        assert dominant_term(messages=100, rounds=1000, max_degree=100, num_machines=10) == "degree"

    def test_closed_form_bound_decreases_with_k(self):
        bounds = [cdrw_kmachine_round_bound(1024, 2, 0.05, 0.001, k) for k in (2, 4, 8)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_validation(self):
        with pytest.raises(MachineError):
            conversion_theorem_rounds(1, 1, 1, 0)
        with pytest.raises(MachineError):
            conversion_theorem_rounds(-1, 1, 1, 2)
        with pytest.raises(MachineError):
            conversion_theorem_rounds(1, 1, 1, 2, include_polylog=True)
        with pytest.raises(MachineError):
            cdrw_kmachine_round_bound(10, 3, 0.1, 0.1, 2)


class TestKMachineCdrw:
    def test_accuracy_matches_centralized(self, small_ppm):
        graph, truth = small_ppm.graph, small_ppm.partition
        delta = ppm_expected_conductance(
            graph.num_vertices, 2, small_ppm.intra_probability, small_ppm.inter_probability
        )
        config = RunConfig(seed=1, num_machines=4, partition_seed=0)
        result = detect(graph, "kmachine", config=config, delta_hint=delta).native_result
        assert average_f_score(result.detection, truth) > 0.85
        assert result.num_machines == 4

    def test_rounds_decrease_with_more_machines(self, small_ppm):
        graph = small_ppm.graph
        delta = 0.05
        rounds = []
        for k in (2, 4, 8):
            outcome = detect_community_kmachine(
                graph, 3, k, delta_hint=delta, partition_seed=0
            )
            rounds.append(outcome.cost.rounds)
        assert rounds[0] > rounds[1] > rounds[2]

    def test_scaling_between_linear_and_quadratic(self, small_ppm):
        graph = small_ppm.graph
        r2 = detect_community_kmachine(graph, 3, 2, delta_hint=0.05, partition_seed=0).cost.rounds
        r8 = detect_community_kmachine(graph, 3, 8, delta_hint=0.05, partition_seed=0).cost.rounds
        improvement = r2 / r8
        # Going from 2 to 8 machines is a 4x increase: the speedup must be at
        # least linear (4x, up to constant slack) and at most quadratic (16x).
        assert 2.0 < improvement < 20.0

    def test_cost_breakdown_consistent(self, small_ppm):
        outcome = detect_community_kmachine(small_ppm.graph, 0, 4, delta_hint=0.05, partition_seed=1)
        assert outcome.cost.rounds > 0
        assert outcome.cost.congest_rounds_routed > 0
        assert outcome.cost.inter_machine_messages > 0

    def test_invalid_seed_vertex(self, two_cliques_graph):
        with pytest.raises(MachineError):
            detect_community_kmachine(two_cliques_graph, 99, 2)

    def test_network_machine_count_mismatch(self, two_cliques_graph):
        partition = RandomVertexPartition(10, 4)
        network = KMachineNetwork(partition)
        with pytest.raises(MachineError):
            detect_community_kmachine(two_cliques_graph, 0, 2, network=network)


#: Per-community (rounds, inter-machine messages, local messages, CONGEST
#: rounds routed) of the pinned run below, one tuple per detected community.
PINNED_CHARGES = {
    "default": (
        CDRWParameters(),
        [
            (225851, 1498121, 721252, 8650),
            (173927, 1644153, 574178, 8651),
            (199834, 1652396, 565355, 8651),
            (303898, 1970492, 619925, 10092),
        ],
    ),
    "lazy_walk": (
        CDRWParameters(lazy_walk=True),
        [
            (339014, 2250169, 1082925, 12973),
            (351019, 2908687, 1165257, 15855),
            (300037, 2482184, 849258, 12974),
            (477822, 3099923, 975426, 15856),
        ],
    ),
    "linear_schedule": (
        CDRWParameters(size_schedule="linear"),
        [
            (784331, 5192681, 2504092, 30130),
            (603527, 5703873, 1991858, 30131),
            (693874, 5733596, 1961555, 30131),
            (1055698, 6832132, 2148585, 35152),
        ],
    ),
}


class TestPinnedCharges:
    """The k-machine backend is the shared detection loop plus exact charges."""

    @pytest.mark.parametrize("name", sorted(PINNED_CHARGES))
    def test_detection_equals_scalar_and_charges_are_pinned(self, name):
        params, expected = PINNED_CHARGES[name]
        n = 256
        graph = planted_partition_graph(
            n, 4, 2 * math.log(n) ** 2 / n, 0.6 / n, seed=2
        ).graph
        config = RunConfig(seed=2, max_seeds=6, num_machines=4, partition_seed=2)
        kmachine = detect(graph, "kmachine", params, config)
        scalar = detect(graph, "scalar", params, config)
        # Equality of the detections includes every per-step history.
        assert kmachine.detection == scalar.detection
        assert all(result.history for result in kmachine.detection.communities)
        charges = [
            (cost.rounds, cost.inter_machine_messages, cost.local_messages,
             cost.congest_rounds_routed)
            for cost in kmachine.phase_costs.values()
        ]
        assert charges == expected
        assert kmachine.total_cost == kmachine.native_result.total_cost
