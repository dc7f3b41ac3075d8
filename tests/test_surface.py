"""Package surface: no dead functions, and a lazy top level that works.

Dead-surface check: every function in the package has a caller in it.

A function or method defined under src/fanoperiods (dunders excepted)
must be referenced somewhere else in the package.  A function counts as
used when its name is read bare, read as an attribute, or imported; a
method (a def in a class body) only when its name is read as an
attribute or imported, so a local variable of the same name does not
keep it alive.  Matching is by bare name, so a method counts as used
when any attribute of that name is read; the check catches surface that
nothing in production reaches, which then is either deleted or moved
into the tests that still want it.
"""

from __future__ import annotations

import ast
import pickle
from pathlib import Path

import pytest

import fanoperiods
from fanoperiods.laurent import QPolynomial
from fanoperiods.young import BoxContext, YoungDiagram
from test_cli import run_python

PACKAGE = Path(fanoperiods.__file__).resolve().parent


def _definitions_and_references():
    """(module, line, name, is_method) per def; names read bare; names read
    as an attribute or imported."""
    definitions: list[tuple[str, int, str, bool]] = []
    names: set[str] = set()
    attributes: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {
            child
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for child in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.append((path.name, node.lineno, node.name, node in methods))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.add(node.name.rpartition(".")[2])
    return definitions, names, attributes


def test_every_function_is_referenced_in_the_package():
    definitions, names, attributes = _definitions_and_references()
    unused = [
        f"{module}:{line} {name}"
        for module, line, name, is_method in definitions
        if name not in attributes
        and (is_method or name not in names)
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, f"never referenced in src/fanoperiods: {', '.join(unused)}"


INT_KERNEL = ("_add_product", "_common_denominator", "_to_ints", "_from_ints")


def test_fraction_oracles_do_not_share_the_int_kernel():
    # QPolynomial.__mul__ and multiply check the int routes of the period
    # engine and the theta ladder; an oracle that shares the kernel it
    # checks checks nothing
    tree = ast.parse((PACKAGE / "laurent.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert set(INT_KERNEL) <= set(functions)
    qpolynomial = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "QPolynomial"
    )
    multiply_method = next(
        node for node in qpolynomial.body
        if isinstance(node, ast.FunctionDef) and node.name == "__mul__"
    )
    for oracle in (functions["multiply"], multiply_method):
        names = {
            getattr(node, "id", None) or getattr(node, "attr", None)
            for node in ast.walk(oracle)
        }
        assert not names & set(INT_KERNEL), f"{oracle.name} uses {names & set(INT_KERNEL)}"


class TestLazyPackage:
    """The top level re-exports its names through a module __getattr__."""

    def test_every_exported_name_resolves(self):
        for name in fanoperiods.__all__:
            value = getattr(fanoperiods, name)
            if name != "__version__":
                assert value.__name__ == name
                assert value.__module__.startswith("fanoperiods.")

    def test_star_import_binds_every_exported_name(self):
        namespace: dict = {}
        exec("from fanoperiods import *", namespace)
        assert set(fanoperiods.__all__) <= set(namespace)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            fanoperiods.no_such_name  # noqa: B018
        with pytest.raises(ImportError):
            from fanoperiods import no_such_name  # noqa: F401

    def test_records_unpickle_where_only_the_package_is_imported(self):
        context = BoxContext(2, 5)
        records = (context, YoungDiagram(context, (2, 1)), QPolynomial.of(3, 2))
        done = run_python(
            "-c",
            "import pickle, sys, fanoperiods; "
            "print(repr(pickle.loads(bytes.fromhex(sys.argv[1]))))",
            pickle.dumps(records).hex(),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.decode() == repr(records) + "\n"
