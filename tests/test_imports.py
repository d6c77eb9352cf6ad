"""Imports of the package modules: every top-level import is used, no
private name crosses a module boundary, no function imports, the
package exports exactly what its ``__init__`` imports, the CLI loads
no scipy module and builds no named grid, and the benchmark tracer still
finds every function it wraps."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitcone
import orbitcone.cli  # noqa: F401  (the tracer wraps only modules already imported)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
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


def fresh_output(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports the package
    from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(orbitcone.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return done.stdout


@pytest.fixture(scope="module")
def cli_modules():
    """The modules a fresh ``import orbitcone.cli`` loads."""
    return set(fresh_output("import sys, orbitcone.cli; print(' '.join(sys.modules))").split())


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.stats", "scipy.integrate",
                                    "scipy.interpolate", "scipy.signal", "scipy.ndimage"])
def test_cli_import_does_not_load(cli_modules, module):
    # the subpackages the CLI once loaded for its cone search
    assert module not in cli_modules


def test_cli_import_loads_no_scipy(cli_modules):
    # every CLI process pays for what importing orbitcone.cli loads
    assert sorted(m for m in cli_modules if m.split(".")[0] == "scipy") == []


def test_cli_import_builds_no_named_grid():
    # the named grids and their ring tables are built on first use: every
    # CLI process, and the benchmark's setup_s, would pay for one built at import
    code = "import orbitcone.cli, orbitcone.cones as c; print(c._named_grid.cache_info().currsize)"
    assert fresh_output(code).split() == ["0"]


def counter_arguments(source: str) -> dict[str, set[str]]:
    """For each layer of a tracer module's ``LAYERS``, the argument names
    its counter reads (``arguments["name"]``, the counter's first
    parameter subscripted by a string)."""
    tree = ast.parse(source)
    defs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    layers = next(
        n.value for n in tree.body
        if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "LAYERS"
    )
    reads = {}
    for key, count in zip(layers.keys, layers.values):
        if isinstance(count, ast.Name):
            count = defs[count.id]
        if not isinstance(count, (ast.Lambda, ast.FunctionDef)):
            continue
        arg = count.args.args[0].arg
        reads[key.value] = {
            n.slice.value for n in ast.walk(count)
            if isinstance(n, ast.Subscript) and isinstance(n.value, ast.Name)
            and n.value.id == arg and isinstance(n.slice, ast.Constant)
        }
    return reads


def test_counter_arguments_are_found():
    src = (
        "def _sat(a, r):\n    return {'n': r['x']}\n"
        "LAYERS = {'m.f': lambda a, r: {'k': len(a['pts']), 'j': r['y']},\n"
        "          'm.g': None, 'm.h': _sat}\n"
    )
    assert counter_arguments(src) == {"m.f": {"pts"}, "m.h": set()}


def test_bench_tracer_wraps_every_layer():
    # bench/run.py --trace 1 installs all of LAYERS: a traced name that is
    # renamed or deleted, or a counter argument that is renamed, breaks it
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    reads = counter_arguments(TRACING.read_text())
    assert reads["liealg.classify_batch"] == {"points"}
    assert reads["cones.dedup_directions"] == {"dirs"}

    def bound(name):
        module, attr = name.rsplit(".", 1)
        return getattr(importlib.import_module(f"orbitcone.{module}"), attr)

    originals = {name: bound(name) for name in tracing.LAYERS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, fn in originals.items():
            assert bound(name) is not fn and bound(name).__wrapped__ is fn, name
            assert reads.get(name, set()) <= set(inspect.signature(fn).parameters), name
    finally:
        tracer.uninstall()
    assert all(bound(name) is fn for name, fn in originals.items())
