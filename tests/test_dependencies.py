"""Every third-party module that the library, the tests and the benchmark import
is declared; the library's in the dependencies that every install gets."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]
# bstbench's scripts import each other by file name
BSTBENCH_MODULES = {"run", "workloads", "tracer", "metrics"}


def _imported_modules(path: Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _names(requirements) -> set:
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in requirements}


def _undeclared(patterns, own: set, declared: set) -> dict:
    """Module -> files among ``patterns`` that import it, for every
    third-party module that is neither ``own`` nor ``declared``."""
    undeclared = {}
    for path in sorted(p for pattern in patterns for p in ROOT.glob(pattern)):
        for name in _imported_modules(path):
            if name not in sys.stdlib_module_names and name not in own | declared:
                undeclared.setdefault(name, []).append(path.relative_to(ROOT).as_posix())
    return undeclared


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    # a plain ``pip install .`` installs ``dependencies`` and no extra
    required = _names(project["dependencies"])
    extras = _names(req for reqs in project.get("optional-dependencies", {}).values()
                    for req in reqs)
    own = {project["name"]}
    assert _undeclared(["src/**/*.py"], own, required) == {}
    assert _undeclared(["tests/**/*.py", "bstbench/**/*.py"], own | BSTBENCH_MODULES,
                       required | extras) == {}
