"""Every name that a module of the package imports is used in that module,
and no module of the package uses ``assert``.

No lint tool is assumed; this walks each module's syntax tree.  A name
counts as used when it is read anywhere in the module, attribute bases
included (``linalg.Echelon`` uses ``linalg``).  ``python -O`` drops assert
statements, so a check in the package raises a ``QgcError`` instead.
"""

import ast
from pathlib import Path

import pytest

import qgc

MODULES = sorted(Path(qgc.__file__).parent.glob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_package_has_modules():
    assert {"qgroup.py", "scalars.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    unused = sorted(set(imported_names(tree)) - used_names(tree))
    assert not unused, f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts at lines {lines}"
