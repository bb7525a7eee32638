"""Every module-level name in ``src/packmatch`` is used somewhere.

A name that starts with a single underscore is an implementation detail, so
nothing outside the package should need it; if no other statement in the
package reads it, it is dead code and should go. A public name may serve
callers outside the package instead, but only if the package exports it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import packmatch

SOURCE = Path(packmatch.__file__).resolve().parent


def _defined_names(statement: ast.stmt) -> list[str]:
    """The module-level names a top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [
            node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)
        ]
    return []


def _read_names(statement: ast.stmt) -> set[str]:
    """The names and attributes a statement reads; an import alone is no use."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unread_names(keep) -> list[str]:
    """``module: name`` for each module-level name ``keep`` picks that no other statement reads."""
    defined = []  # (module, name, defining statement)
    statements = []
    for path in sorted(SOURCE.glob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        for statement in module.body:
            statements.append(statement)
            for name in _defined_names(statement):
                if not name.startswith("__") and keep(name):
                    defined.append((path.name, name, statement))
    assert defined, "no names found; the source path is wrong"
    return [
        f"{module}: {name}"
        for module, name, definition in defined
        if not any(
            name in _read_names(statement)
            for statement in statements
            if statement is not definition
        )
    ]


def test_every_private_name_is_used_elsewhere_in_src():
    assert _unread_names(lambda name: name.startswith("_")) == []


def test_every_public_name_is_used_elsewhere_in_src_or_exported():
    exported = set(packmatch.__all__)
    assert _unread_names(lambda name: not name.startswith("_") and name not in exported) == []
