"""Tests for the unified detection engine (:mod:`repro.api`).

Three contracts are pinned here:

* **registry** — unknown backends fail with a message listing every
  registered name, duplicate registration raises, and custom backends can be
  registered/unregistered;
* **behaviour neutrality** — every pool-mode backend of
  ``detect(graph, backend=b)`` still produces the *pre-redesign* outputs of
  the entry points it replaced (RNG draw sequences and cost totals recorded
  on a fixed PPM before the registry landed);
* **reporting** — ``RunReport`` round-trips through JSON, and the per-phase
  cost reports sum to the backend's total cost.
"""

from __future__ import annotations

import gc
import json
import math

import numpy as np
import pytest

from repro import api
from repro.api import (
    BackendOutcome,
    RunConfig,
    RunReport,
    available_backends,
    detect,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.congest.cdrw_congest import detect_community_congest
from repro.congest.network import CostReport
from repro.core.result import DetectionResult
from repro.exceptions import AlgorithmError, BackendError
from repro.graphs import Graph, planted_partition_graph
from repro.kmachine.cdrw_kmachine import detect_community_kmachine
from repro.kmachine.simulator import KMachineCost

from cdrw_oracle import detect_community_oracle

#: RNG-sequence expectations recorded on the ``small_ppm`` fixture (n=256,
#: 2 blocks, seed=7) *before* the registry redesign.  They pin the facade to
#: the pre-redesign behaviour.
PRE_REDESIGN_SCALAR_SEEDS = [34, 143]
PRE_REDESIGN_SCALAR_SIZES = [139, 145]
PRE_REDESIGN_PARALLEL_SEEDS = [207, 18]
PRE_REDESIGN_CONGEST_SEEDS = [171, 103]
PRE_REDESIGN_CONGEST_ROUNDS = 30255
PRE_REDESIGN_CONGEST_MESSAGES = 2627076
PRE_REDESIGN_KMACHINE_ROUNDS = 261669


class TestRegistry:
    def test_builtin_backends_present(self):
        names = available_backends()
        for expected in ("scalar", "batched", "parallel", "congest", "kmachine"):
            assert expected in names
        baselines = [name for name in names if name.startswith("baseline:")]
        assert "baseline:spectral" in baselines
        assert "baseline:label_propagation" in baselines
        assert len(baselines) == 5

    def test_unknown_backend_error_lists_available_names(self):
        with pytest.raises(BackendError) as excinfo:
            get_backend("bogus")
        message = str(excinfo.value)
        assert "bogus" in message
        for name in available_backends():
            assert name in message

    def test_detect_rejects_unknown_backend(self, two_cliques_graph):
        with pytest.raises(BackendError, match="available backends"):
            detect(two_cliques_graph, backend="nope")

    def test_duplicate_registration_raises(self):
        with pytest.raises(BackendError, match="already registered"):
            register_backend("scalar", lambda *a: None)

    def test_register_and_unregister_custom_backend(self, two_cliques_graph):
        def runner(graph, params, config, delta_hint):
            return BackendOutcome(
                detection=DetectionResult(
                    num_vertices=graph.num_vertices, communities=()
                )
            )

        backend = register_backend("test:custom", runner, description="test only")
        try:
            assert "test:custom" in available_backends()
            assert get_backend("test:custom") is backend
            report = detect(two_cliques_graph, backend="test:custom")
            assert report.backend == "test:custom"
            assert report.detection.num_communities == 0
            with pytest.raises(BackendError):
                register_backend("test:custom", runner)
        finally:
            unregister_backend("test:custom")
        assert "test:custom" not in available_backends()
        with pytest.raises(BackendError):
            unregister_backend("test:custom")

    def test_backend_descriptions_nonempty(self):
        for name in available_backends():
            assert get_backend(name).description


class TestRunConfig:
    @pytest.mark.parametrize("dtype", ["float32", "float16"])
    def test_rejects_unknown_dtype(self, dtype):
        # A report of a run in another precision must not load as float64.
        data = {**RunConfig(seed=5).to_dict(), "dtype": dtype}
        with pytest.raises(BackendError, match=f"'{dtype}'"):
            RunConfig.from_dict(data)

    def test_dtype_is_not_a_field(self):
        with pytest.raises(TypeError, match="dtype"):
            RunConfig(dtype="float64")

    def test_loads_float64_dtype_of_old_reports(self):
        data = {**RunConfig(seed=5, seeds=(1, 2)).to_dict(), "dtype": "float64"}
        assert RunConfig.from_dict(data) == RunConfig(seed=5, seeds=(1, 2))
        assert "dtype" not in RunConfig().to_dict()

    def test_seeds_normalised_to_ints(self):
        config = RunConfig(seeds=np.asarray([3, 1, 4], dtype=np.int32))
        assert config.seeds == (3, 1, 4)
        assert all(isinstance(s, int) for s in config.seeds)

    @pytest.mark.parametrize("backend", ("scalar", "batched", "congest", "kmachine"))
    def test_negative_max_seeds_rejected(self, small_ppm, backend):
        # A negative cap used to act as a slice bound: seeds[:-1] silently
        # dropped the last explicit seed, and pool mode detected nothing.
        for config in (RunConfig(seeds=(0, 70, 5)), RunConfig(seed=1)):
            with pytest.raises(BackendError, match="max_seeds must be >= 0"):
                detect(small_ppm.graph, backend, config=config, max_seeds=-1)

    def test_with_overrides(self):
        config = RunConfig(seed=1)
        updated = config.with_overrides(batch_size=32, workers=2)
        assert updated.seed == 1
        assert updated.batch_size == 32
        assert updated.workers == 2
        assert config.batch_size == 8  # original untouched

    def test_round_trips_through_dict(self):
        config = RunConfig(seed=5, seeds=(1, 2), num_communities=3, capture_history=False)
        assert RunConfig.from_dict(config.to_dict()) == config

    def test_generator_seed_serializes_as_none(self):
        config = RunConfig(seed=np.random.default_rng(0))
        assert config.to_dict()["seed"] is None


class TestFacadeMatchesLegacyEntryPoints:
    """Acceptance: detect(graph, backend=b) draws what the legacy entry points drew.

    Each pool-mode backend runs against the constants recorded before the
    registry existed; none of them has been re-pinned since.
    """

    def test_scalar_pool_loop(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="scalar", delta_hint=0.05,
            config=RunConfig(seed=11),
        )
        assert report.detection.seeds() == PRE_REDESIGN_SCALAR_SEEDS
        assert [r.size for r in report.detection.communities] == PRE_REDESIGN_SCALAR_SIZES
        assert report.phase_costs == {}
        assert report.total_cost is None

    def test_scalar_explicit_seeds(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="scalar", delta_hint=0.05,
            config=RunConfig(seeds=(0, 99)),
        )
        assert list(report.detection.communities) == [
            detect_community_oracle(small_ppm.graph, s, delta_hint=0.05) for s in (0, 99)
        ]

    def test_batched_pool_loop(self, small_ppm, scalar_community):
        report = detect(
            small_ppm.graph, backend="batched", delta_hint=0.05,
            config=RunConfig(seed=11, batch_size=4),
        )
        # The first draw sees the full pool at any width.
        assert report.detection.seeds()[0] == PRE_REDESIGN_SCALAR_SEEDS[0]
        for result in report.detection.communities:
            assert result == scalar_community(small_ppm.graph, result.seed, delta_hint=0.05)

    def test_batched_batch_size_one_is_rng_identical_to_scalar(self, small_ppm):
        scalar = detect(
            small_ppm.graph, backend="scalar", delta_hint=0.05,
            config=RunConfig(seed=11),
        )
        report = detect(
            small_ppm.graph, backend="batched", delta_hint=0.05,
            config=RunConfig(seed=11, batch_size=1),
        )
        assert report.detection.seeds() == PRE_REDESIGN_SCALAR_SEEDS
        assert [r.size for r in report.detection.communities] == PRE_REDESIGN_SCALAR_SIZES
        assert report.detection == scalar.detection

    def test_batched_explicit_seed_batch(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="batched", delta_hint=0.05,
            config=RunConfig(seeds=(5, 40, 5), batch_size=3),
        )
        scalar = detect(
            small_ppm.graph, backend="scalar", delta_hint=0.05,
            config=RunConfig(seeds=(5, 40, 5)),
        )
        assert report.detection == scalar.detection

    def test_parallel(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="parallel", delta_hint=0.05,
            config=RunConfig(seed=3, num_communities=2),
        )
        assert report.detection.seeds() == PRE_REDESIGN_PARALLEL_SEEDS

    def test_parallel_requires_num_communities(self, small_ppm):
        with pytest.raises(BackendError, match="num_communities"):
            detect(small_ppm.graph, backend="parallel", delta_hint=0.05)

    def test_parallel_invalid_arguments_keep_legacy_error_type(self, small_ppm):
        with pytest.raises(AlgorithmError):
            detect(
                small_ppm.graph, backend="parallel", delta_hint=0.05,
                config=RunConfig(num_communities=0),
            )

    def test_congest(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="congest", delta_hint=0.05,
            config=RunConfig(seed=5, max_seeds=2),
        )
        assert report.detection.seeds() == PRE_REDESIGN_CONGEST_SEEDS
        assert report.total_cost.rounds == PRE_REDESIGN_CONGEST_ROUNDS
        assert report.total_cost.messages == PRE_REDESIGN_CONGEST_MESSAGES
        assert report.native_result.total_cost == report.total_cost

    def test_kmachine(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="kmachine", delta_hint=0.05,
            config=RunConfig(seed=5, max_seeds=2, num_machines=4, partition_seed=1),
        )
        assert report.detection.seeds() == PRE_REDESIGN_CONGEST_SEEDS
        assert report.total_cost.rounds == PRE_REDESIGN_KMACHINE_ROUNDS
        assert report.native_result.total_cost == report.total_cost

    def test_baseline_backends_match_direct_calls(self, small_ppm):
        from repro.baselines import label_propagation, spectral_clustering

        direct = label_propagation(small_ppm.graph, seed=21)
        report = detect(
            small_ppm.graph, backend="baseline:label_propagation",
            config=RunConfig(seed=21),
        )
        assert report.native_result.partition == direct.partition
        assert report.detection.detected_sets() == [
            c for c in direct.partition.communities() if c
        ]

        direct = spectral_clustering(small_ppm.graph, 2, seed=21)
        report = detect(
            small_ppm.graph, backend="baseline:spectral",
            config=RunConfig(seed=21, num_communities=2),
        )
        assert report.native_result.partition == direct.partition

    def test_spectral_requires_num_communities(self, small_ppm):
        with pytest.raises(BackendError, match="num_communities"):
            detect(small_ppm.graph, backend="baseline:spectral")


class TestRunReport:
    def test_phase_costs_sum_to_total(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="congest", delta_hint=0.05,
            config=RunConfig(seed=5, max_seeds=2),
        )
        assert len(report.phase_costs) == 2
        assert sum(report.phase_costs.values()) == report.total_cost
        assert report.total_cost == report.native_result.total_cost

    def test_kmachine_costs_support_sum(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="kmachine", delta_hint=0.05,
            config=RunConfig(seed=5, max_seeds=2, num_machines=2, partition_seed=0),
        )
        total = sum(report.phase_costs.values())
        assert total == report.total_cost
        assert total.rounds == sum(c.rounds for c in report.phase_costs.values())

    def test_timings_and_metadata(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="batched", delta_hint=0.05,
            config=RunConfig(seed=1, max_seeds=1),
        )
        assert report.timings["total_seconds"] >= 0.0
        assert report.metadata["num_vertices"] == small_ppm.graph.num_vertices
        assert report.metadata["num_edges"] == small_ppm.graph.num_edges
        assert report.metadata["backend_description"]

    @pytest.mark.parametrize("backend", ["batched", "congest", "kmachine"])
    def test_json_round_trip(self, small_ppm, backend):
        report = detect(
            small_ppm.graph, backend=backend, delta_hint=0.05,
            config=RunConfig(seed=5, max_seeds=2, num_machines=2),
        )
        text = report.to_json()
        json.loads(text)  # valid JSON
        restored = RunReport.from_json(text)
        assert restored == report
        assert restored.native_result is None

    def test_capture_history_flag_skips_histories_end_to_end(self, small_ppm):
        """capture_history=False never builds the traces; results are unchanged.

        The flag used to drop histories only at JSON time; it now skips
        accumulating them in the detect loop itself, so the in-memory
        results arrive with empty histories while the communities, walk
        lengths, stop reasons and delta stay identical to a full run —
        and the JSON round trip becomes exact (empty in, empty out).
        """
        full = detect(
            small_ppm.graph, backend="scalar", delta_hint=0.05,
            config=RunConfig(seed=1, max_seeds=1),
        )
        slim = detect(
            small_ppm.graph, backend="scalar", delta_hint=0.05,
            config=RunConfig(seed=1, max_seeds=1, capture_history=False),
        )
        assert all(c.history == () for c in slim.detection.communities)
        assert any(c.history for c in full.detection.communities)
        for kept, dropped in zip(full.detection.communities, slim.detection.communities):
            assert kept.seed == dropped.seed
            assert kept.community == dropped.community
            assert kept.walk_length == dropped.walk_length
            assert kept.stop_reason == dropped.stop_reason
            assert kept.delta == dropped.delta
        assert len(slim.to_json()) < len(full.to_json())
        restored = RunReport.from_json(slim.to_json())
        assert restored == slim  # exact round trip now that histories are empty

    def test_overrides_apply_on_top_of_config(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="batched", delta_hint=0.05,
            config=RunConfig(seed=11), batch_size=1, max_seeds=1,
        )
        assert report.config.batch_size == 1
        assert report.config.max_seeds == 1
        assert report.config.seed == 11

    def test_capture_distributions_artifact(self, small_ppm):
        """The final-walk snapshots ride the report instead of bypassing it."""
        from repro.core.batched import _detect_community_batch_impl
        from repro.core.prepared import Prepared

        seeds = (0, 9, 30)
        report = detect(
            small_ppm.graph, backend="batched", delta_hint=0.05,
            config=RunConfig(seeds=seeds, capture_distributions=True),
        )
        rows = report.artifacts["final_distributions"]
        assert len(rows) == len(report.detection.communities)
        assert all(len(row) == small_ppm.graph.num_vertices for row in rows)
        # Exactly the matrix the internal batch produces, column for column.
        _, finals = _detect_community_batch_impl(
            Prepared(small_ppm.graph, delta_hint=0.05), seeds, capture_distributions=True
        )
        assert np.array_equal(np.array(rows).T, finals)

    def test_capture_distributions_off_by_default(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="batched", delta_hint=0.05,
            config=RunConfig(seeds=(0,)),
        )
        assert report.artifacts == {}
        assert report.to_dict()["artifacts"] == {}

    def test_capture_distributions_json_round_trip_is_exact(self, small_ppm):
        report = detect(
            small_ppm.graph, backend="batched", delta_hint=0.05,
            config=RunConfig(seeds=(0, 9), capture_distributions=True),
        )
        restored = RunReport.from_json(report.to_json())
        assert restored == report
        assert restored.artifacts == report.artifacts  # exact floats, not approx

    def test_capture_distributions_pool_mode(self, small_ppm):
        from repro.core.batched import _detect_community_batch_impl
        from repro.core.prepared import Prepared

        report = detect(
            small_ppm.graph, backend="batched", delta_hint=0.05,
            config=RunConfig(seed=3, max_seeds=3, capture_distributions=True),
        )
        rows = report.artifacts["final_distributions"]
        assert len(rows) == len(report.detection.communities)
        for row in rows:
            # Each snapshot is a full walk probability distribution.
            assert sum(row) == pytest.approx(1.0)
        # Row i is the final walk of community i's seed, exactly as a batch
        # of that seed alone emits it: a shard-order or pool-round merge bug
        # would misalign these.
        prepared = Prepared(small_ppm.graph, delta_hint=0.05)
        for row, community in zip(rows, report.detection.communities):
            _, finals = _detect_community_batch_impl(
                prepared, [community.seed], capture_distributions=True
            )
            assert np.array_equal(np.array(row), finals[:, 0])


class TestDecodedMemberIds:
    """Decoded replies map member ids onto one shared, validated id table."""

    NUM_VERTICES = 600  # ids beyond CPython's small-int cache (<= 256)

    @pytest.fixture(scope="class")
    def report(self):
        n = self.NUM_VERTICES
        ppm = planted_partition_graph(n, 2, 3 * math.log(n) ** 2 / n, 1.0 / n, seed=7)
        return detect(
            ppm.graph, backend="batched", delta_hint=0.05,
            config=RunConfig(seeds=(0, 400)),
        )

    def test_round_trip_is_exact(self, report):
        assert RunReport.from_dict(report.to_dict()) == report

    def test_two_decoded_replies_share_member_objects(self, report):
        first = RunReport.from_json(report.to_json())
        second = RunReport.from_json(report.to_json())
        one = first.detection.communities[0]
        two = second.detection.communities[0]
        by_value = {member: member for member in two.community}
        assert max(one.community) > 256
        assert all(member is by_value[member] for member in one.community)
        # History members share the same objects as the communities.
        for item in one.history:
            for member in item.members & two.community:
                assert member is by_value[member]

    def test_two_decodes_share_one_community_set(self, report):
        first = RunReport.from_json(report.to_json())
        second = RunReport.from_json(report.to_json())
        for one, two in zip(first.detection.communities, second.detection.communities):
            assert one.community is two.community
            assert type(one.community) is frozenset
            assert one.history[-1].members is two.history[-1].members
        assert first == second == report
        assert {hash(c.community) for c in first.detection.communities} == {
            hash(c.community) for c in report.detection.communities
        }

    def test_shared_sets_are_not_kept_alive_by_the_table(self, report):
        gc.collect()
        before = set(api._decoded_members.keys())
        decoded = RunReport.from_json(report.to_json())
        assert len(api._decoded_members) > len(before)
        del decoded
        gc.collect()
        assert set(api._decoded_members.keys()) == before

    @pytest.mark.parametrize("bad", [-1, NUM_VERTICES, "3", 2.5, None])
    def test_forged_community_id_is_rejected(self, report, bad):
        data = report.to_dict()
        data["detection"]["communities"][0]["community"].append(bad)
        with pytest.raises(BackendError, match="vertex ids"):
            RunReport.from_dict(data)

    @pytest.mark.parametrize("bad", [-1, NUM_VERTICES])
    def test_forged_history_id_is_rejected(self, report, bad):
        data = report.to_dict()
        data["detection"]["communities"][1]["history"][-1]["members"].insert(0, bad)
        with pytest.raises(BackendError, match="vertex ids"):
            RunReport.from_dict(data)

    @pytest.mark.parametrize("bad", [-1, "256", 2.0, True])
    def test_forged_num_vertices_is_rejected(self, report, bad):
        data = report.to_dict()
        data["detection"]["num_vertices"] = bad
        with pytest.raises(BackendError, match="num_vertices"):
            RunReport.from_dict(data)


class TestEdgelessGraphs:
    """Every CDRW backend returns the seed alone on a graph with no edges."""

    BACKENDS = ("scalar", "batched", "congest", "kmachine")

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "config", [RunConfig(seed=3), RunConfig(seeds=(4, 0, 2))], ids=("pool", "seeds")
    )
    def test_one_singleton_per_seed(self, backend, config):
        graph = Graph(5, [])
        report = detect(graph, backend, config=config)
        reference = detect(graph, "scalar", config=config).detection
        assert report.detection == reference
        communities = report.detection.communities
        assert len(communities) == (5 if config.seeds is None else 3)
        for community in communities:
            assert community.community == frozenset({community.seed})
            assert community.stop_reason == "graph has no edges"
        zero_cost = {
            "congest": CostReport(rounds=0, messages=0),
            "kmachine": KMachineCost(
                rounds=0, inter_machine_messages=0, local_messages=0, congest_rounds_routed=0
            ),
        }
        if backend in zero_cost:
            assert report.total_cost == zero_cost[backend]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_graph_detects_nothing(self, backend):
        report = detect(Graph(0, []), backend, config=RunConfig(seed=1))
        assert report.detection.communities == ()
        assert report.detection.num_vertices == 0

    def test_single_seed_simulators_charge_nothing(self):
        graph = Graph(4, [])
        expected = detect_community_oracle(graph, 2)
        congest = detect_community_congest(graph, 2)
        kmachine = detect_community_kmachine(graph, 2, num_machines=2)
        assert congest.community == kmachine.community == expected
        assert (congest.cost, congest.bfs_depth) == (CostReport(rounds=0, messages=0), 0)
        assert kmachine.cost == KMachineCost(
            rounds=0, inter_machine_messages=0, local_messages=0, congest_rounds_routed=0
        )


class TestDeltaResolvedOncePerCall:
    """Without a hint, δ is one spectral estimate per call on every CDRW backend."""

    @pytest.mark.parametrize("backend", ("scalar", "batched", "parallel", "congest", "kmachine"))
    def test_one_conductance_estimate_per_call(self, monkeypatch, backend):
        import repro.core.parameters as parameters_module

        n = 96
        graph = planted_partition_graph(n, 2, 3 * math.log(n) ** 2 / n, 1.0 / n, seed=3).graph
        estimate = parameters_module.graph_conductance_estimate
        calls = []

        def counting(graph_arg, *args, **kwargs):
            calls.append(graph_arg)
            return estimate(graph_arg, *args, **kwargs)

        monkeypatch.setattr(parameters_module, "graph_conductance_estimate", counting)
        # Four seeds in two rounds of two (one seed per round on the
        # width-1 backends); the parallel backend starts two spread seeds.
        config = RunConfig(seeds=(0, 1, 50, 51), batch_size=2, num_communities=2, seed=4)
        report = detect(graph, backend, config=config)
        assert report.detection.communities
        assert len(calls) == 1
