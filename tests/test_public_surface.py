"""A name stays in the package only if the package itself uses it.

Every name that ``popverify/__init__.py`` imports must be read by some
other module of the package, outside the statement that defines it.
Names that only tests compute belong in ``tests/helpers.py``.  The one
exception is a name that an open ROADMAP item names as its reference.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "popverify"

REFERENCES = {
    "specialization_chain": "ROADMAP item 6",
    "brute_equivalent": "ROADMAP item 10",
}


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def defined_names(node) -> set:
    """The module-level names that the statement ``node`` binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def read_names(node) -> set:
    """Every name ``node`` reads, as a variable or an attribute.  Imports
    and docstrings do not count."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
    return names


def package_uses() -> set:
    uses = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            uses |= read_names(node) - defined_names(node)
    return uses


def test_every_export_is_used_by_the_package():
    unused = exported_names() - package_uses() - set(REFERENCES)
    assert not unused, f"move to tests/helpers.py or delete: {sorted(unused)}"


def test_every_reference_exception_is_still_needed():
    # An exception the package now uses, or no longer exports, is stale.
    assert set(REFERENCES) <= exported_names() - package_uses()
