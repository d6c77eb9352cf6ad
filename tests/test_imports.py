"""Imports of the package modules: every top-level import is used, no
private name crosses a module boundary, no function imports, the
package exports exactly what its ``__init__`` imports, and the CLI does
not load ``scipy.optimize``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcone

SOURCES = sorted(Path(orbitcone.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    src = "from __future__ import annotations\nimport os\nimport re\nfrom a import b as c\nre.x\n"
    assert unused_imports(src) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def import_faults(source: str) -> list[str]:
    """Private names imported from another package module, and imports
    inside a function body."""
    tree = ast.parse(source)
    faults = [
        f"private {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "orbitcone")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    faults += [
        f"nested in {fn.name}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    return faults


def test_import_faults_are_found():
    src = (
        "from .liealg import _flatten, build_algebra\n"
        "from orbitcone.cli import _clean\n"
        "from numpy import _private_ok\n"
        "def f():\n    import os\n"
    )
    assert import_faults(src) == ["private _flatten", "private _clean", "nested in f"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_module_imports_no_private_name_and_nothing_inside_functions(path):
    assert import_faults(path.read_text()) == []


def test_all_lists_exactly_the_imported_names_sorted():
    tree = ast.parse(Path(orbitcone.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert orbitcone.__all__ == sorted(orbitcone.__all__)
    assert len(set(orbitcone.__all__)) == len(orbitcone.__all__)
    assert set(orbitcone.__all__) == imported


def test_cli_import_does_not_load_scipy_optimize():
    # every CLI process pays for what importing orbitcone.cli loads
    code = "import sys, orbitcone.cli; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(orbitcone.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.strip() == "False"
