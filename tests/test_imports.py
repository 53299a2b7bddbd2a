"""Every name a package module imports is used in that module, and no
package module guards anything with an assert, which python -O removes."""

import ast
from pathlib import Path

import pytest

import seifert

MODULES = sorted(p for p in Path(seifert.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_package_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES + [Path(seifert.__file__)],
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert lines == []
