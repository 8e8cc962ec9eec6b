"""Static analysis layer: the ``vdaplint`` determinism & safety linter.

Everything the reproduction claims -- Fig 2/3 and Table I regeneration,
seeded fault storms, "same seed => byte-identical trace" -- rests on the
sim kernel's determinism contract.  This package makes that contract a
property checked on every commit instead of a convention in DESIGN.md:

* a from-scratch, stdlib-``ast`` lint engine (:mod:`.engine`) with a
  single-file rule pack encoding the platform invariants (:mod:`.rules`)
  and inline suppression pragmas; every finding counts;
* a **whole-program** layer: a project-wide symbol table and call graph
  (:mod:`.callgraph`) feeding an interprocedural nondeterminism taint
  pass (:mod:`.dataflow`) -- DET101/SIM101/RACE001 catch cross-module
  violations no single file can show;
* a **semantic** tier: a forward abstract interpreter inferring
  physical units from naming conventions and ``# unit:`` pragmas
  (:mod:`.units` -- UNIT001/UNIT002/UNIT003) and a path-sensitive
  resource-protocol checker over ``sim.resources`` grants
  (:mod:`.protocol` -- RES101/RES102/PROTO001), both driven by the one
  incremental analyzer (:mod:`.cache`) whose single manifest
  (``.vdaplint-cache/manifest.json``) also holds the scenario tier's
  entries, so warm runs re-analyze only changed files and their
  dependents with byte-identical output;
* **multiprocess-safety** rules for the fleet layer (:mod:`.mp` --
  MP001-003: spawn-payload picklability, fork-crossing global writes,
  pipe-protocol exhaustiveness), run in the ``--whole-program`` pass
  because no profile can show them;
* a **planning** tier (:mod:`.commgraph`, :mod:`.cost`, :mod:`.plan`):
  static extraction of the cross-vehicle communication graph with link
  latencies recovered by bounded constant propagation + unit inference,
  a provable cross-partition lookahead, FLEET001-003 barrier-safety
  rules, and a greedy-LPT cost-balanced partition plan the fleet layer
  executes (``--plan``), its per-vehicle costs weighted by the kernel's
  per-event paths (:class:`~.cost.HotPathIndex`);
* a **scenario** tier (:mod:`.scenario`): SCN001-005 static validation
  of declarative fleet scenario files (:mod:`repro.scenarios`) --
  schema, unit suffixes, cross-references, per-cell barrier
  feasibility re-proved through the planning tier's ConstResolver, and
  matrix cost budgets from the static cost model (``--scenarios``);
* the **runtime** cross-check re-exported from :mod:`repro.sim`: an
  opt-in ``DeterminismSanitizer`` that hashes the live event trace so two
  same-seed runs can be diffed to the first diverging event;
* a CLI with stable exit codes (:mod:`.cli`)::

    python -m repro.analysis src/repro
    python -m repro.analysis --whole-program src/repro tests
    python -m repro.analysis --cache --scenarios src/repro tests scenarios
    python -m repro.analysis --plan --dump-plan --format json src/repro
    vdaplint --list-rules

``import repro`` does not load this package; import it (or run the CLI)
explicitly.
"""

from .cache import (
    DEFAULT_CACHE_DIR,
    SEMANTIC_RULE_CLASSES,
    CachedRun,
    IncrementalAnalyzer,
    catalogue_fingerprint,
    semantic_rules,
    semantic_rules_by_id,
)
from .callgraph import ProjectGraph, build_graph, infer_module_name
from .commgraph import (
    COMM_SINKS,
    CommEdge,
    CommGraph,
    CommSinkSpec,
    ConstResolver,
    is_latency_name,
)
from .cost import (
    HOT_ROOT_SUFFIXES,
    ROLE_ROOTS,
    HotPathIndex,
    RoleWeights,
    vehicle_costs,
)
from .dataflow import (
    FLOW_RULE_CLASSES,
    TaintAnalysis,
    WholeProgramAnalyzer,
    flow_rules,
    flow_rules_by_id,
)
from .engine import (
    FileContext,
    Finding,
    LintEngine,
    Pragmas,
    Rule,
    SKIP_MARKER,
    discover_files,
    lint_source,
)
from .mp import MP_RULE_CLASSES, MpAnalyzer, mp_rules, mp_rules_by_id
from .plan import (
    FLEET_RULE_CLASSES,
    FleetPlanAnalyzer,
    emit_plan,
    fleet_rules,
    fleet_rules_by_id,
    parse_fleet_spec,
    plan_for_config,
)
from .protocol import PROTOCOL_RULE_CLASSES, ProtocolChecker
from .reporter import render_json, render_text
from .rules import RULE_CLASSES, default_rules, rules_by_id
from .sanitizer import DeterminismSanitizer, Divergence, TraceRecord
from .scenario import (
    SCENARIO_RULE_CLASSES,
    ScenarioAnalyzer,
    discover_scenario_files,
    scenario_rules,
    scenario_rules_by_id,
)
from .units import (
    UNIT_RULE_CLASSES,
    ModuleSummary,
    SignatureIndex,
    Unit,
    UnitChecker,
    parse_name_unit,
    parse_unit_expr,
    summarize_module,
)
from .cli import main

__all__ = [
    "COMM_SINKS",
    "CachedRun",
    "CommEdge",
    "CommGraph",
    "CommSinkSpec",
    "ConstResolver",
    "DEFAULT_CACHE_DIR",
    "DeterminismSanitizer",
    "Divergence",
    "FLEET_RULE_CLASSES",
    "FLOW_RULE_CLASSES",
    "FileContext",
    "Finding",
    "FleetPlanAnalyzer",
    "HOT_ROOT_SUFFIXES",
    "HotPathIndex",
    "IncrementalAnalyzer",
    "LintEngine",
    "MP_RULE_CLASSES",
    "ModuleSummary",
    "MpAnalyzer",
    "PROTOCOL_RULE_CLASSES",
    "Pragmas",
    "ProjectGraph",
    "ProtocolChecker",
    "ROLE_ROOTS",
    "RULE_CLASSES",
    "RoleWeights",
    "Rule",
    "SCENARIO_RULE_CLASSES",
    "SEMANTIC_RULE_CLASSES",
    "SKIP_MARKER",
    "ScenarioAnalyzer",
    "SignatureIndex",
    "TaintAnalysis",
    "TraceRecord",
    "UNIT_RULE_CLASSES",
    "Unit",
    "UnitChecker",
    "WholeProgramAnalyzer",
    "build_graph",
    "catalogue_fingerprint",
    "default_rules",
    "discover_files",
    "discover_scenario_files",
    "emit_plan",
    "fleet_rules",
    "fleet_rules_by_id",
    "flow_rules",
    "flow_rules_by_id",
    "infer_module_name",
    "is_latency_name",
    "lint_source",
    "main",
    "mp_rules",
    "mp_rules_by_id",
    "parse_fleet_spec",
    "parse_name_unit",
    "parse_unit_expr",
    "plan_for_config",
    "render_json",
    "render_text",
    "rules_by_id",
    "scenario_rules",
    "scenario_rules_by_id",
    "semantic_rules",
    "semantic_rules_by_id",
    "summarize_module",
    "vehicle_costs",
]
