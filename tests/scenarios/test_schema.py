"""Schema semantics: issue anchoring, matrix expansion, settings maps."""

import dataclasses
import types
import typing

from repro.fleet.config import FleetConfig
from repro.scenarios import parse_text, validate
from repro.scenarios.schema import (
    FLEET_FIELDS,
    LINK_FIELDS,
    base_settings,
    config_defaults,
    effective_vehicles,
    expand_cells,
    sweep_axes,
)


def issues_for(text):
    return [(i.line, i.rule) for i in validate(parse_text(text))]


def test_valid_minimal_document_is_clean():
    assert issues_for("fleet:\n  vehicles: 4\n") == []


def test_missing_fleet_section_is_reported():
    issues = validate(parse_text("name: nothing\n"))
    assert any(
        i.rule == "SCN001" and "fleet" in i.message for i in issues
    )


def test_unknown_top_level_section():
    issues = validate(parse_text("fleet:\n  vehicles: 4\nflee: {}\n"))
    assert any("flee" in i.message and i.rule == "SCN001" for i in issues)


def test_roster_count_mismatch_anchors_on_declared_count():
    text = (
        "fleet:\n"
        "  vehicles: 3\n"   # line 2: contradicts the 2-entry roster
        "vehicles:\n"
        "  - id: 0\n"
        "  - id: 1\n"
    )
    assert (2, "SCN001") in issues_for(text)


def test_partitions_exceeding_vehicles_in_a_swept_cell():
    text = (
        "fleet:\n"
        "  vehicles: 4\n"
        "sweep:\n"
        "  partitions: [2, 8]\n"  # line 4: the 8-partition cell is bad
    )
    assert (4, "SCN001") in issues_for(text)


def test_expand_cells_is_row_major_over_sorted_axes():
    doc = parse_text(
        "fleet:\n"
        "  vehicles: 8\n"
        "sweep:\n"
        "  workload: [uniform, skewed]\n"
        "  partitions: [1, 2]\n"
    )
    names = [cell.name for cell in expand_cells(doc)]
    assert names == [
        "partitions=1/workload=uniform",
        "partitions=1/workload=skewed",
        "partitions=2/workload=uniform",
        "partitions=2/workload=skewed",
    ]


def test_no_sweep_expands_to_single_base_cell():
    doc = parse_text("fleet:\n  vehicles: 4\n")
    cells = expand_cells(doc)
    assert len(cells) == 1
    assert cells[0].name == "base"
    assert cells[0].overrides == ()


def test_malformed_axis_values_drop_the_axis():
    doc = parse_text(
        "fleet:\n"
        "  vehicles: 4\n"
        "sweep:\n"
        "  partitions: [2, nope]\n"
    )
    assert sweep_axes(doc) == []
    assert len(expand_cells(doc)) == 1


def test_base_settings_skip_malformed_entries():
    doc = parse_text(
        "fleet:\n"
        "  vehicles: 4\n"
        "  duration_s: -1.0\n"
    )
    settings = base_settings(doc)
    assert settings["vehicles"].value == 4
    assert "duration_s" not in settings


def test_effective_vehicles_prefers_the_roster():
    doc = parse_text(
        "fleet:\n"
        "  vehicles: 9\n"
        "vehicles:\n"
        "  - id: 0\n"
        "  - id: 1\n"
    )
    assert effective_vehicles(doc, {"vehicles": 9}) == 2


def test_config_defaults_track_the_dataclass():
    defaults = config_defaults()
    assert defaults["vehicles"] == FleetConfig().vehicles
    assert defaults["workload"] == FleetConfig().workload


def test_issues_sorted_and_deduplicated():
    text = (
        "fleet:\n"
        "  bogus_a: 1\n"
        "  bogus_b: 2\n"
    )
    issues = validate(parse_text(text))
    assert issues == sorted(issues)
    assert len(issues) == len(set(issues))


#: Scalar FleetConfig fields a scenario document deliberately cannot set.
NON_DSL_FIELDS = {
    "start_method": "multiprocessing start method: a host choice, not "
                    "part of the experiment",
}


def _scalar_kind(hint) -> str | None:
    """``"int"``/``"float"``/``"bool"``/``"str"`` behind ``hint`` (``X | None``
    unwrapped), or None for structured fields."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        members = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        if len(members) != 1:
            return None
        hint = members[0]
    return hint.__name__ if hint in (int, float, bool, str) else None


def _fleet_scalars() -> dict[str, str]:
    hints = typing.get_type_hints(FleetConfig)
    kinds = {f.name: _scalar_kind(hints[f.name]) for f in dataclasses.fields(FleetConfig)}
    return {name: kind for name, kind in kinds.items() if kind is not None}


def test_every_scalar_fleet_field_is_in_the_schema_or_listed():
    schema = {**FLEET_FIELDS, **LINK_FIELDS}
    for name in _fleet_scalars():
        assert (name in schema) != (name in NON_DSL_FIELDS), name


def test_every_schema_field_is_a_fleet_field_of_the_same_kind():
    scalars = _fleet_scalars()
    assert not set(FLEET_FIELDS) & set(LINK_FIELDS)
    for name, spec in {**FLEET_FIELDS, **LINK_FIELDS}.items():
        assert scalars.get(name) == spec.kind, name
    assert set(NON_DSL_FIELDS) <= set(scalars)
