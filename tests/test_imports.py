"""Every name that a module of the package imports is used in that module,
every private name that the package defines is read somewhere in it, every
public one is read by the package, the benchmark or the tools, or is an
entry point that README.md names, no module of the package uses
``assert``, none holds a float, no module but ``qgroup.py`` reads a
private attribute of an ``Algebra``, none but ``scalars.py`` reads the
scalar format, and its multiply-accumulate reads no packed field.

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
ROOT = Path(__file__).resolve().parents[1]


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


def private_definitions(tree):
    """Names with one leading underscore bound by ``def``, ``class`` (at any
    depth) or a module-level assignment."""
    names = [node.name for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(tree):
    """Names loaded as variables or as attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


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


def test_every_private_name_is_read():
    # a helper left behind when its only caller moves out of the package
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    unread = sorted((name, n) for name, tree in trees.items()
                    for n in private_definitions(tree) - read)
    assert not unread, f"defined and never read in the package: {unread}"


# public names that only callers of the library read; README.md names each
ENTRY_POINTS = {"chi", "comultiply", "counit", "memo", "char_eval", "trace_fn",
                "matrix_coeff", "from_json"}


def test_every_public_name_is_read_or_an_entry_point():
    # code kept only for the tests belongs beside them
    readers = MODULES + sorted((ROOT / "perfbench").rglob("*.py")) \
        + sorted((ROOT / "tools").rglob("*.py"))
    read = set().union(*(read_names(ast.parse(p.read_text())) for p in readers))
    unread = sorted((path.name, node.name) for path in MODULES
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in read | ENTRY_POINTS)
    assert not unread, f"read only by the tests: {unread}"
    readme = (ROOT / "README.md").read_text()
    unnamed = sorted(name for name in ENTRY_POINTS if f"`{name}`" not in readme
                     and f".{name}`" not in readme)
    assert not unnamed, f"entry points README.md does not name: {unnamed}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floating_point(path):
    # the kernel is exact: no float literal and no float() call
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
             or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "float"]
    assert not lines, f"{path.name} uses floating point at lines {lines}"


ALGEBRA_NAMES = {"alg", "algebra"}


def private_algebra_reads(tree):
    """Lines that read a private attribute of an ``Algebra``, by the names
    the package gives one: ``alg``, ``algebra`` or ``x.algebra``."""
    def is_algebra(node):
        return isinstance(node, ast.Name) and node.id in ALGEBRA_NAMES \
            or isinstance(node, ast.Attribute) and node.attr in ALGEBRA_NAMES
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and not node.attr.startswith("__") and is_algebra(node.value))


def test_private_algebra_reads_are_found():
    tree = ast.parse("alg._memo\nalg.memo('x')\nmodule.algebra._zero\nalgebra.n\n"
                     "other._zero\nalg.rs._memo\n")
    assert private_algebra_reads(tree) == [1, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "qgroup.py"],
                         ids=lambda p: p.name)
def test_no_private_algebra_reads_outside_qgroup(path):
    # the algebra's tables and helpers are read through its public methods
    lines = private_algebra_reads(ast.parse(path.read_text()))
    assert not lines, f"{path.name} reads a private Algebra attribute at lines {lines}"


def scalar_format_reads(tree):
    """Lines that read ``.num``, ``.den`` or ``LaurentBi``, or import
    ``LaurentBi`` or a private name from the ``scalars`` module.  A local
    variable named ``num`` or ``den`` is not a read."""
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("num", "den", "LaurentBi")
             or isinstance(node, ast.Name) and node.id == "LaurentBi"]
    lines += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[-1] == "scalars"
              and any(alias.name == "LaurentBi" or alias.name.startswith("_")
                      for alias in node.names)]
    return sorted(set(lines))


def test_scalar_format_reads_are_found():
    tree = ast.parse("x.num\ny.den.terms\nfrom .scalars import _L_ONE\n"
                     "from .scalars import ONE, LaurentBi\nfrom qgc.scalars import ZERO\n"
                     "scalars.LaurentBi.const(1)\nc.numerator\nfrom .qgroup import _unit\n"
                     "num = den = 1\nLaurentBi\n")
    assert scalar_format_reads(tree) == [1, 2, 3, 4, 6, 10]


def test_only_scalars_reads_the_scalar_format():
    # the numerator and denominator of a Scalar, and the LaurentBi that
    # holds them, are read in scalars.py alone, so a change of the format
    # edits that one module
    reads = {path.name: scalar_format_reads(ast.parse(path.read_text()))
             for path in MODULES if path.name != "scalars.py"}
    reads = {name: lines for name, lines in reads.items() if lines}
    assert not reads, f"modules that read the scalar format, by line: {reads}"


ACCUMULATOR = {"add_product", "settle", "settle_into"}
PACKED_FIELDS = {"_c", "_w", "_b", "_k"}


def packed_field_reads(tree):
    """{name: lines} of the ``ACCUMULATOR`` functions that tree defines at
    module level, the lines where each reads a packed field of a LaurentBi."""
    return {fn.name: sorted(node.lineno for node in ast.walk(fn)
                            if isinstance(node, ast.Attribute) and node.attr in PACKED_FIELDS)
            for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in ACCUMULATOR}


def test_packed_field_reads_are_found():
    tree = ast.parse("def settle(acc):\n    return acc.x._c, acc._k\n"
                     "def other(p):\n    return p._w\n"
                     "def add_product(acc):\n    return acc._cw\n")
    assert packed_field_reads(tree) == {"settle": [2, 2], "add_product": []}


def test_the_accumulator_reads_no_packed_field():
    # add_product, settle and settle_into sum LaurentBi values by their own
    # arithmetic, so the packed format stays with LaurentBi and its helpers
    reads = packed_field_reads(ast.parse((Path(qgc.__file__).parent / "scalars.py").read_text()))
    assert reads.keys() == ACCUMULATOR
    reads = {name: lines for name, lines in reads.items() if lines}
    assert not reads, f"accumulator functions that read a packed field, by line: {reads}"
