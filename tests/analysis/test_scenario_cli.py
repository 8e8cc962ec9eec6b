"""Scenario CLI tier: flag guards, discovery, findings, and cache warmth.

Runs ``--scenarios`` over temp scenario files and the shipped corpus,
asserting output is byte-deterministic across cold and warm
incremental-cache runs, and that scenario entries share the one cache
manifest with the Python entries.
"""

import json
import os

import pytest

from repro.analysis import IncrementalAnalyzer, main
from repro.analysis import scenario as scenario_module
from repro.analysis.scenario import discover_scenario_files, scenario_rules

SHIPPED = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "scenarios"
)

BAD_DOC = (
    "name: bad\n"
    "fleet:\n"
    "  vehicles: 4\n"
    "  duration_s: -3.0\n"
    "  barrier_ms: 250\n"
)

CLEAN_DOC = (
    "name: ok\n"
    "fleet:\n"
    "  vehicles: 4\n"
    "  partitions: 2\n"
)


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


class TestGuards:
    def test_scenario_rule_selection_requires_scenarios(self, tmp_path):
        (tmp_path / "m.py").write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path), "--select", "SCN001"])
        assert exc.value.code == 2

    def test_list_rules_includes_the_scenario_tier(self, capsys):
        code, out = run_cli(["--list-rules"], capsys)
        assert code == 0
        for rule_id in ("SCN001", "SCN002", "SCN003", "SCN004", "SCN005"):
            assert rule_id in out
        assert "[scenario]" in out


class TestDiscovery:
    def test_walk_collects_yaml_and_yml(self, tmp_path):
        (tmp_path / "a.yaml").write_text(CLEAN_DOC, encoding="utf-8")
        (tmp_path / "b.yml").write_text(CLEAN_DOC, encoding="utf-8")
        (tmp_path / "c.txt").write_text("not a scenario", encoding="utf-8")
        found = discover_scenario_files([str(tmp_path)])
        assert [os.path.basename(p) for p in found] == ["a.yaml", "b.yml"]

    def test_skip_marker_prunes_directories(self, tmp_path):
        sub = tmp_path / "fixtures"
        sub.mkdir()
        (sub / ".vdaplint-skip").write_text("", encoding="utf-8")
        (sub / "bad.yaml").write_text(BAD_DOC, encoding="utf-8")
        (tmp_path / "good.yaml").write_text(CLEAN_DOC, encoding="utf-8")
        found = discover_scenario_files([str(tmp_path)])
        assert [os.path.basename(p) for p in found] == ["good.yaml"]

    def test_missing_path_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "nope"), "--scenarios"])
        assert exc.value.code == 2


class TestFindings:
    def test_bad_scenario_fails_the_run_with_located_findings(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.yaml"
        path.write_text(BAD_DOC, encoding="utf-8")
        code, out = run_cli(
            [str(tmp_path), "--scenarios"], capsys
        )
        assert code == 1
        assert "bad.yaml:4" in out and "SCN001" in out
        assert "bad.yaml:5" in out and "SCN002" in out

    def test_syntax_error_surfaces_as_e999(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("fleet:\n\tvehicles: 4\n", encoding="utf-8")
        code, out = run_cli(
            [str(tmp_path), "--scenarios"], capsys
        )
        assert code == 1
        assert "E999" in out

    def test_clean_scenario_passes_and_counts_as_scanned(
        self, tmp_path, capsys
    ):
        (tmp_path / "ok.yaml").write_text(CLEAN_DOC, encoding="utf-8")
        code, out = run_cli(
            [str(tmp_path), "--scenarios"], capsys
        )
        assert code == 0
        assert "1 file" in out

    def test_without_the_flag_scenarios_are_ignored(self, tmp_path, capsys):
        (tmp_path / "bad.yaml").write_text(BAD_DOC, encoding="utf-8")
        code, _ = run_cli([str(tmp_path)], capsys)
        assert code == 0

    def test_shipped_scenarios_are_strict_clean(self, capsys):
        code, _ = run_cli([SHIPPED, "--scenarios"], capsys)
        assert code == 0

    def test_json_report_carries_scenario_findings(self, tmp_path, capsys):
        (tmp_path / "bad.yaml").write_text(BAD_DOC, encoding="utf-8")
        code, out = run_cli(
            [str(tmp_path), "--scenarios", "--format", "json"],
            capsys,
        )
        assert code == 1
        report = json.loads(out)
        rules = {f["rule"] for f in report["findings"]}
        assert {"SCN001", "SCN002"} <= rules


def scenario_analyzer(cache_dir):
    return IncrementalAnalyzer(
        [], {}, str(cache_dir), scenario_rules=scenario_rules()
    )


class TestCache:
    def test_warm_run_replays_byte_identically(self, tmp_path, capsys):
        proj = tmp_path / "proj"
        proj.mkdir()
        (proj / "bad.yaml").write_text(BAD_DOC, encoding="utf-8")
        (proj / "ok.yaml").write_text(CLEAN_DOC, encoding="utf-8")
        (proj / "mod.py").write_text("x = 1\n", encoding="utf-8")
        cache_dir = tmp_path / "cache"
        argv = [
            str(proj), "--scenarios", "--cache", "--cache-dir", str(cache_dir),
        ]
        cold_code = main(argv)
        cold = capsys.readouterr()
        warm_code = main(argv)
        warm = capsys.readouterr()
        assert (cold_code, cold.out) == (warm_code, warm.out) == (1, cold.out)
        # One stats line covers both kinds of entry in the one manifest.
        assert cold.err == "vdaplint: cache: 3 analyzed, 0 replayed\n"
        assert warm.err == "vdaplint: cache: 0 analyzed, 3 replayed\n"
        assert sorted(os.listdir(cache_dir)) == ["manifest.json"]
        # A Python-only run that rewrites the manifest keeps the
        # scenario entries warm.
        (proj / "mod.py").write_text("x = 2\n", encoding="utf-8")
        assert main(argv[:1] + argv[2:]) == 1  # mod.py lacks __all__
        assert capsys.readouterr().err == (
            "vdaplint: cache: 1 analyzed, 0 replayed\n"
        )
        with open(cache_dir / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert sorted(manifest["files"]) == [str(proj / "mod.py")]
        assert sorted(manifest["scenarios"]) == [
            str(proj / "bad.yaml"), str(proj / "ok.yaml"),
        ]

    def test_cache_replays_then_reanalyzes_edits(self, tmp_path):
        path = tmp_path / "doc.yaml"
        path.write_text(BAD_DOC, encoding="utf-8")
        cache_dir = tmp_path / "cache"
        cold = scenario_analyzer(cache_dir).run([], [str(path)])
        assert cold.analyzed == [str(path)] and cold.replayed == []
        warm = scenario_analyzer(cache_dir).run([], [str(path)])
        assert warm.analyzed == [] and warm.replayed == [str(path)]
        assert warm.findings == cold.findings
        assert {f.rule for f in cold.findings} == {"SCN001", "SCN002"}
        path.write_text(CLEAN_DOC, encoding="utf-8")
        edited = scenario_analyzer(cache_dir).run([], [str(path)])
        assert edited.analyzed == [str(path)]
        assert edited.findings == []

    def test_package_edit_reanalyzes_every_scenario_entry(
        self, tmp_path, monkeypatch
    ):
        """SCN004/005 consult the package tree, so a source edit there
        re-analyzes every cached scenario; a scenario edit only itself."""
        package = tmp_path / "pkg"
        package.mkdir()
        module = package / "mod.py"
        module.write_text("LATENCY_S = 1.0\n", encoding="utf-8")
        monkeypatch.setattr(scenario_module, "_PACKAGE_ROOT", str(package))
        first, second = tmp_path / "a.yaml", tmp_path / "b.yaml"
        for path in (first, second):
            path.write_text(CLEAN_DOC, encoding="utf-8")
        files = [str(module)]
        scenarios = [str(first), str(second)]
        cache_dir = tmp_path / "cache"

        def run():
            return scenario_analyzer(cache_dir).run(files, scenarios)

        cold = run()
        assert cold.analyzed == sorted(files + scenarios)
        assert run().analyzed == []

        module.write_text("LATENCY_S = 2.0\n", encoding="utf-8")
        assert run().analyzed == sorted(files + scenarios)
        assert run().analyzed == []

        second.write_text(CLEAN_DOC + "# edited\n", encoding="utf-8")
        edited = run()
        assert edited.analyzed == [str(second)]
        assert edited.replayed == sorted(files + [str(first)])
        assert edited.findings == cold.findings == []
        assert run().analyzed == []
