"""Annotated MP fixture corpus: every multiprocess-safety rule fires on
its seeded bug and stays silent on the idiomatic fix.

Each fixture under ``mp_fixtures/`` carries ``# expect-mp: RULE``
annotations; the ``--whole-program`` pass must produce *exactly* that
finding set -- extra findings on the fixed variants are failures too.
The corpus directory holds a ``.vdaplint-skip`` marker so repo-wide lint
sweeps do not trip over the deliberate violations.
"""

import contextlib
import io
import json
import os
import re

import pytest

from repro.analysis import MP_RULE_CLASSES, SKIP_MARKER, main

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "mp_fixtures")

EXPECT_RE = re.compile(r"#\s*expect-mp:\s*([A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*)")

MP_IDS = ",".join(cls.id for cls in MP_RULE_CLASSES)


def fixture_paths() -> list[str]:
    return sorted(
        os.path.join(FIXTURE_DIR, name)
        for name in os.listdir(FIXTURE_DIR)
        if name.endswith(".py")
    )


def expected_findings(source: str) -> set[tuple[int, str]]:
    expected = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = EXPECT_RE.search(text)
        if not match:
            continue
        for rule_id in match.group(1).split(","):
            expected.add((lineno, rule_id.strip()))
    return expected


def analyze(path: str) -> set[tuple[int, str]]:
    """MP findings of one file through the CLI's ``--whole-program`` pass."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--whole-program", "--select", MP_IDS,
              "--format", "json", path])
    report = json.loads(out.getvalue())
    return {(f["line"], f["rule"]) for f in report["findings"]}


@pytest.mark.parametrize(
    "path", fixture_paths(), ids=[os.path.basename(p) for p in fixture_paths()]
)
def test_fixture_matches_annotations(path):
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    expected = expected_findings(source)
    actual = analyze(path)
    missing = expected - actual
    unexpected = actual - expected
    assert not missing, f"{path}: annotated findings did not fire: {missing}"
    assert not unexpected, f"{path}: unannotated findings fired: {unexpected}"


def test_corpus_exercises_every_rule():
    """Every shipped MP rule must fire somewhere in the corpus."""
    shipped = {cls.id for cls in MP_RULE_CLASSES}
    fired = set()
    for path in fixture_paths():
        fired.update(rule for _line, rule in analyze(path))
    assert shipped <= fired, f"rules with no firing fixture: {shipped - fired}"


def test_corpus_is_skip_marked():
    """The fixture directory must opt out of directory-walk discovery."""
    assert os.path.exists(os.path.join(FIXTURE_DIR, SKIP_MARKER))


def test_pragma_suppresses_mp_finding(tmp_path):
    """MP findings honor the standard vdaplint pragmas."""
    bug = (
        "def worker_main(conn, fn):\n"
        "    return fn(conn)\n"
        "\n"
        "\n"
        "def spawn(ctx, conn):\n"
        "    return ctx.Process(target=worker_main, args=(conn, lambda x: x)){}\n"
    )
    fires = tmp_path / "fires.py"
    fires.write_text(bug.format(""), encoding="utf-8")
    assert analyze(str(fires)) == {(6, "MP001")}
    silenced = tmp_path / "silenced.py"
    silenced.write_text(
        bug.format("  # vdaplint: disable=MP001"), encoding="utf-8"
    )
    assert analyze(str(silenced)) == set()
