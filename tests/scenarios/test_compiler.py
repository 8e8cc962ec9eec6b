"""Compiler lowering: scenario documents vs hand-built FleetConfigs."""

import pytest

from repro.faults.prockill import KillPhase
from repro.fleet.config import FleetConfig
from repro.scenarios import ScenarioError, compile_text, load_scenario

SMOKE = (
    "name: smoke\n"
    "fleet:\n"
    "  seed: 42\n"
    "  vehicles: 8\n"
    "  partitions: 4\n"
    "  duration_s: 12.0\n"
    "  barrier_s: 1.0\n"
    "  workload: uniform\n"
    "links:\n"
    "  v2v_latency_s: 1.0\n"
    "  beacon_period_s: 2.0\n"
)


def test_plain_scenario_lowers_to_an_equal_config():
    """Field names are FleetConfig kwargs verbatim, so a plain scenario
    compiles to a config *equal* to the hand-built one -- the property
    the byte-identical trace-hash check rests on."""
    scenario = compile_text(SMOKE)
    assert len(scenario.cells) == 1
    assert scenario.cells[0].config == FleetConfig(
        seed=42, vehicles=8, partitions=4, duration_s=12.0,
        barrier_s=1.0, workload="uniform",
        v2v_latency_s=1.0, beacon_period_s=2.0,
    )


def test_unset_fields_keep_dataclass_defaults():
    scenario = compile_text("fleet:\n  vehicles: 4\n")
    assert scenario.cells[0].config == FleetConfig(vehicles=4)


def test_sweep_produces_one_config_per_cell():
    scenario = compile_text(
        "fleet:\n"
        "  vehicles: 8\n"
        "sweep:\n"
        "  partitions: [1, 2, 4]\n"
    )
    assert [c.config.partitions for c in scenario.cells] == [1, 2, 4]
    assert [c.name for c in scenario.cells] == [
        "partitions=1", "partitions=2", "partitions=4",
    ]


def test_styled_roster_lowers_to_a_service_table():
    scenario = compile_text(
        "fleet:\n"
        "  vehicles: 3\n"
        "  partitions: 1\n"
        "  workload: calm\n"
        "styles:\n"
        "  calm:\n"
        "    services: 2\n"
        "    cost_weight: 1.5\n"
        "vehicles:\n"
        "  - id: 0\n"
        "    style: calm\n"
        "  - id: 1\n"
        "    services: 5\n"
        "  - id: 2\n"
        "    style: uniform\n"
    )
    config = scenario.cells[0].config
    spec = config.style_spec
    assert spec is not None
    assert spec.service_table[0] == 2          # custom style
    assert spec.service_table[1] == 5          # explicit per-vehicle count
    assert spec.service_cost_weight == 1.5
    assert config.style.service_count(0) == 2
    assert config.style.service_count(1) == 5


def test_builtin_workload_without_roster_keeps_style_spec_none():
    scenario = compile_text("fleet:\n  vehicles: 4\n  workload: skewed\n")
    assert scenario.cells[0].config.style_spec is None


def test_faults_lower_to_a_kill_plan():
    scenario = compile_text(
        "fleet:\n"
        "  vehicles: 4\n"
        "  partitions: 2\n"
        "faults:\n"
        "  kills:\n"
        "    - partition: 1\n"
        "      round: 2\n"
        "    - partition: 0\n"
        "      round: 5\n"
        "      phase: before-ack\n"
    )
    plan = scenario.cells[0].config.kill_plan
    assert plan is not None
    kills = sorted(plan.kills, key=lambda k: (k.partition, k.barrier_index))
    assert (kills[0].partition, kills[0].barrier_index) == (0, 5)
    assert kills[0].phase == KillPhase.BEFORE_ACK
    assert kills[1].phase == KillPhase.ON_ADVANCE


def test_plan_shards_lower_verbatim():
    scenario = compile_text(
        "fleet:\n"
        "  vehicles: 4\n"
        "  partitions: 2\n"
        "plan:\n"
        "  shards:\n"
        "    - [0, 2]\n"
        "    - [1, 3]\n"
    )
    assert scenario.cells[0].config.plan == ((0, 2), (1, 3))


def test_invalid_document_raises_scenario_error_with_issues():
    with pytest.raises(ScenarioError) as err:
        compile_text("fleet:\n  vehicles: -2\n", "bad.yaml")
    assert err.value.path == "bad.yaml"
    assert any(issue.rule == "SCN001" for issue in err.value.issues)
    assert "bad.yaml:2" in str(err.value)


def test_budget_fields_surface_on_the_scenario():
    scenario = compile_text(
        "fleet:\n"
        "  vehicles: 4\n"
        "budget:\n"
        "  cost: 100.0\n"
        "  cells: 3\n"
    )
    assert scenario.budget_cost == 100.0
    assert scenario.budget_cells == 3


def test_cell_accessor_bounds():
    scenario = compile_text(SMOKE)
    assert scenario.cell(0) is scenario.cells[0]
    with pytest.raises(IndexError):
        scenario.cell(1)


def test_name_defaults_to_the_file_basename(tmp_path):
    path = tmp_path / "my_run.yaml"
    path.write_text("fleet:\n  vehicles: 4\n", encoding="utf-8")
    scenario = load_scenario(str(path))
    assert scenario.name == "my_run"
