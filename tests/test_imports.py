"""Every top-level import of a package module is used by that module."""

import ast
from pathlib import Path

import pytest

import orbitcone

MODULES = sorted(
    p for p in Path(orbitcone.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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
