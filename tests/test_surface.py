"""Dead-surface check: every function in the package has a caller in it.

A function or method defined under src/fanoperiods (dunders excepted)
must be referenced somewhere else in the package: by a name, an
attribute, or an import.  Matching is by bare name, so a method counts
as used when any attribute of that name is read; the check catches
surface that nothing in production reaches, which then is either
deleted or moved into the tests that still want it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import fanoperiods

PACKAGE = Path(fanoperiods.__file__).resolve().parent


def _definitions_and_references():
    definitions: list[tuple[str, int, str]] = []
    references: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                definitions.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                references.add(node.id)
            elif isinstance(node, ast.Attribute):
                references.add(node.attr)
            elif isinstance(node, ast.alias):
                references.add(node.name.rpartition(".")[2])
    return definitions, references


def test_every_function_is_referenced_in_the_package():
    definitions, references = _definitions_and_references()
    unused = [
        f"{module}:{line} {name}"
        for module, line, name in definitions
        if name not in references
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not unused, f"never referenced in src/fanoperiods: {', '.join(unused)}"
