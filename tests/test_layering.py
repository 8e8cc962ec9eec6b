"""Layering guard: runtime packages never import the linter.

Dependencies point one way.  ``repro.analysis`` may import the runtime
(the planner builds ``FleetConfig``s, the scenario tier compiles
scenario documents), but no module outside it may import
``repro.analysis`` -- not at module level and not lazily inside a
function.  That includes the package index ``repro/__init__.py``:
``import repro`` loads no linter module.
"""

import ast
import os
import subprocess
import sys

import repro
from repro.analysis import discover_files

SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))
LINTER = "repro.analysis"


def _module_parts(path: str) -> tuple[list[str], bool]:
    """``(dotted parts, is_package)`` for a file under ``src/repro``."""
    rel = os.path.relpath(path, os.path.dirname(SRC_REPRO))
    parts = rel[: -len(".py")].split(os.sep)
    if parts[-1] == "__init__":
        return parts[:-1], True
    return parts, False


def imported_modules(source: str, path: str) -> set[str]:
    """Every dotted module an import statement in ``source`` may bind."""
    parts, is_package = _module_parts(path)
    package = parts if is_package else parts[:-1]
    found: set[str] = set()
    for node in ast.walk(ast.parse(source, filename=path)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - (node.level - 1)]
            else:
                base = []
            target = base + (node.module.split(".") if node.module else [])
            found.add(".".join(target))
            # ``from .. import analysis`` binds a submodule by name.
            found.update(".".join(target + [alias.name]) for alias in node.names)
    return found


def imports_linter(modules: set[str]) -> list[str]:
    return sorted(
        name for name in modules
        if name == LINTER or name.startswith(LINTER + ".")
    )


def runtime_files() -> list[str]:
    linter_dir = os.path.join(SRC_REPRO, "analysis") + os.sep
    return [
        path for path in discover_files([SRC_REPRO])
        if not path.startswith(linter_dir)
    ]


def test_checker_sees_absolute_relative_and_lazy_imports():
    path = os.path.join(SRC_REPRO, "fleet", "runtime.py")
    for source in (
        "import repro.analysis.units\n",
        "from repro.analysis import units\n",
        "from ..analysis.sanitizer import DeterminismSanitizer\n",
        "from .. import analysis\n",
        "def f():\n    from ..analysis import plan\n",
    ):
        assert imports_linter(imported_modules(source, path)), source
    assert not imports_linter(imported_modules("from ..sim import core\n", path))


def test_runtime_packages_never_import_the_linter():
    files = runtime_files()
    assert len(files) > 50
    offenders = []
    for path in files:
        with open(path, encoding="utf-8") as fh:
            hits = imports_linter(imported_modules(fh.read(), path))
        if hits:
            rel = os.path.relpath(path, os.path.dirname(SRC_REPRO))
            offenders.append(f"{rel}: {', '.join(hits)}")
    assert not offenders, (
        "runtime modules import the linter:\n" + "\n".join(offenders)
    )


def test_importing_repro_loads_no_linter_module():
    """Checked in a fresh interpreter: this test process already holds
    ``repro.analysis`` (imported above)."""
    probe = (
        "import sys, repro\n"
        "print(sorted(m for m in sys.modules\n"
        f"             if m == {LINTER!r} or m.startswith({LINTER + '.'!r})))\n"
    )
    env = dict(os.environ)
    src = os.path.dirname(SRC_REPRO)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    assert out.strip() == "[]"
