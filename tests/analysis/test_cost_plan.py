"""Cost model and plan emission: role weights on the real tree,
greedy-LPT plan shape, and the fleet-spec parser.

The planner's promise is determinism: identical inputs must produce the
identical ``PartitionPlan`` document, and the plan must only ever
reassign vehicles -- never change what any vehicle computes.  These
tests pin the cost side of that promise; the hash-invariance side lives
in ``tests/property/test_plan_invariance.py``.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.analysis import (
    ROLE_ROOTS,
    RoleWeights,
    build_graph,
    emit_plan,
    parse_fleet_spec,
    plan_for_config,
    vehicle_costs,
)
from repro.fleet import run_inline, run_single_process
from repro.fleet.config import FleetConfig, PartitionPlan

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")

#: Least critical-partition cut a skewed plan must buy over round-robin.
PLAN_SPEEDUP_FLOOR = 1.2


@pytest.fixture(scope="module")
def graph():
    return build_graph([SRC_REPRO])


class TestRoleWeights:
    def test_all_roles_rooted_on_real_tree(self, graph):
        weights = RoleWeights(graph)
        assert set(weights.roots) == set(ROLE_ROOTS)
        assert all(root is not None for root in weights.roots.values())

    def test_drive_anchors_normalization(self, graph):
        weights = RoleWeights(graph).weights
        assert weights["drive"] == 1.0
        for role in ("beacon", "receive", "service"):
            assert 0.0 < weights[role] < 1.0, (role, weights[role])

    def test_missing_root_weighs_zero(self, tmp_path):
        (tmp_path / "m.py").write_text("def f():\n    return 1\n", encoding="utf-8")
        weights = RoleWeights(build_graph([str(tmp_path)]))
        assert weights.roots["drive"] is None
        assert weights.weights["beacon"] == 0.0

    def test_hot_path_doubles_breadth(self, graph):
        class ColdIndex:
            hot = frozenset()

        hot_weights = RoleWeights(graph).weights
        cold_weights = RoleWeights(graph, hot=ColdIndex()).weights
        # Both normalize drive to 1.0, but the hot set overlaps the role
        # trees unevenly, so at least one ratio must move.
        assert hot_weights != cold_weights

    def test_debug_dict_sorted_and_json_safe(self, graph):
        debug = RoleWeights(graph).to_debug_dict()
        assert list(debug["roots"]) == sorted(debug["roots"])
        json.dumps(debug)


class TestVehicleCosts:
    def test_skewed_style_marks_heavy_vehicles(self, graph):
        weights = RoleWeights(graph)
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        costs = vehicle_costs(config, weights)
        assert len(costs) == 8
        heavy = {i for i, c in enumerate(costs) if c == max(costs)}
        assert heavy == {0, 4}

    def test_uniform_style_is_flat(self, graph):
        weights = RoleWeights(graph)
        config = FleetConfig(vehicles=6, partitions=2)
        costs = vehicle_costs(config, weights)
        assert len(set(costs)) == 1


class TestFleetSpec:
    def test_defaults_and_overrides(self):
        spec = parse_fleet_spec("vehicles=12,partitions=3,workload=skewed")
        assert spec["vehicles"] == 12
        assert spec["partitions"] == 3
        assert spec["workload"] == "skewed"
        assert spec["seed"] == 0
        assert spec["duration_s"] == 30.0

    def test_duration_alias(self):
        assert parse_fleet_spec("duration=5")["duration_s"] == 5.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="bad fleet spec item"):
            parse_fleet_spec("barrier=2.0")

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError):
            parse_fleet_spec("vehicles")
        with pytest.raises(ValueError):
            parse_fleet_spec("vehicles=two")


class TestPlanEmission:
    def test_skewed_plan_isolates_heavy_vehicles(self, graph):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        plan = plan_for_config(config, graph=graph)
        assert plan.method == "greedy-lpt"
        assert plan.shards == ((0,), (4,), (1, 3, 6), (2, 5, 7))
        assert plan.lookahead_s == 1.0
        assert plan.barrier_s == config.barrier_step_s

    def test_plan_round_trips_through_json(self, graph, tmp_path):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        plan = plan_for_config(config, graph=graph)
        path = tmp_path / "plan.json"
        plan.save(str(path))
        loaded = PartitionPlan.load(str(path))
        assert loaded == plan
        # The on-disk form is canonical: sorted keys, trailing newline.
        text = path.read_text(encoding="utf-8")
        assert text == plan.dumps()
        assert text.endswith("\n")

    def test_emit_plan_spec_controls_shape(self, graph):
        plan = emit_plan(graph, fleet=parse_fleet_spec("vehicles=6,partitions=2"))
        assert plan.vehicles == 6
        assert plan.partitions == 2
        assert sorted(v for shard in plan.shards for v in shard) == list(range(6))

    def test_emission_is_deterministic(self, graph):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        assert plan_for_config(config, graph=graph).dumps() == \
            plan_for_config(config, graph=graph).dumps()

    def test_shards_for_rejects_mismatched_config(self, graph):
        config = FleetConfig(vehicles=8, partitions=4, workload="skewed")
        plan = plan_for_config(config, graph=graph)
        with pytest.raises(ValueError):
            plan.shards_for(FleetConfig(vehicles=8, partitions=2, workload="skewed"))
        with pytest.raises(ValueError):
            plan.shards_for(FleetConfig(vehicles=8, partitions=4))

    def test_skewed_plan_cuts_the_critical_partition(self, graph):
        """Round-robin lands both heavy vehicles on partition 0; the plan
        must cut the busiest partition's event count (the per-round
        critical path) by the floor, without changing any trace."""
        config = FleetConfig(
            seed=17, vehicles=8, partitions=4, duration_s=30.0,
            workload="skewed",
        )
        reference = run_single_process(config)
        round_robin = run_inline(config)
        plan = plan_for_config(config, graph=graph)
        planned = run_inline(replace(config, plan=plan.shards_for(config)))
        assert round_robin.vehicle_hashes == reference.vehicle_hashes
        assert planned.vehicle_hashes == reference.vehicle_hashes, (
            "the plan changed traces"
        )
        gain = (round_robin.stats.critical_events()
                / planned.stats.critical_events())
        assert gain >= PLAN_SPEEDUP_FLOOR, (
            f"planned shards cut the critical partition only {gain:.2f}x "
            f"(floor {PLAN_SPEEDUP_FLOOR}x); plan: {plan.shards}"
        )
