"""The meta-test: the platform's own tree passes its own linter.

This is the acceptance gate the CI job re-checks: ``vdaplint src/repro``
must report **zero** findings -- i.e. the determinism contract is clean
on every commit.  There is no baseline of grandfathered findings, so
every finding fails the gate.
"""

import os

import repro
from repro.analysis import (
    MP_RULE_CLASSES,
    CommGraph,
    FleetPlanAnalyzer,
    IncrementalAnalyzer,
    build_graph,
    default_rules,
    main,
    semantic_rules_by_id,
)
from repro.analysis.engine import discover_files


def repro_source_root() -> str:
    return os.path.dirname(os.path.abspath(repro.__file__))


def test_vdaplint_reports_zero_violations_on_src_repro():
    files = discover_files([repro_source_root()])
    findings = IncrementalAnalyzer(default_rules(), {}, cache_dir=None).run(files).findings
    rendered = "\n".join(f"{f.location()}: {f.rule} {f.message}" for f in findings)
    assert not findings, f"vdaplint found violations in src/repro:\n{rendered}"


def test_semantic_tier_reports_zero_violations_on_src_repro():
    """UNIT/RES/PROTO must be clean too: every public API carries coherent
    unit suffixes and every sim grant is released on all paths."""
    files = discover_files([repro_source_root()])
    run = IncrementalAnalyzer([], semantic_rules_by_id(), cache_dir=None).run(files)
    rendered = "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in run.findings
    )
    assert not run.findings, (
        f"semantic analysis found violations in src/repro:\n{rendered}"
    )


def test_mp_tier_reports_zero_violations_on_src_repro(capsys):
    """MP001-003 must be clean under ``--whole-program``: every spawn
    payload pickles, no worker writes a fork-crossed global, and the pipe
    protocol handles every message it sends."""
    mp_ids = ",".join(cls.id for cls in MP_RULE_CLASSES)
    code = main(["--whole-program", "--select", mp_ids,
                 repro_source_root()])
    out = capsys.readouterr().out
    assert code == 0, f"MP analysis found violations in src/repro:\n{out}"


def test_fleet_tier_reports_zero_violations_on_runtime_trees():
    """FLEET must be clean on every tree the fleet actually runs from:
    the library, the benchmarks, and the examples.  The barrier geometry
    is provably safe (lookahead 1.0s from the FleetConfig default) and no
    sim process reaches a barrier-only delivery entry point."""
    src_root = repro_source_root()
    repo_root = os.path.dirname(os.path.dirname(src_root))
    trees = [
        src_root,
        os.path.join(repo_root, "benchmarks"),
        os.path.join(repo_root, "examples"),
    ]
    graph = build_graph(trees)
    comm = CommGraph(graph)
    lookahead, reason = comm.lookahead()
    assert lookahead == 1.0, reason
    findings = FleetPlanAnalyzer(graph).analyze(comm)
    rendered = "\n".join(
        f"{f.location()}: {f.rule} {f.message}" for f in findings
    )
    assert not findings, (
        f"fleet planner found violations in runtime trees:\n{rendered}"
    )

