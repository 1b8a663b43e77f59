"""Source checks on the package: runtime invariants must survive `python -O`,
which strips `assert`, and no function keeps a local it never reads (no
linter is installed to catch dead stores)."""

from __future__ import annotations

import ast
from pathlib import Path

import covergames

SRC = Path(covergames.__file__).parent


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements vanish under python -O: {found}"


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_FUNCTIONS, ast.Lambda, ast.ClassDef)


def _own_scope(func):
    """The nodes of a function's body, without those of nested definitions."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _unread_locals(func) -> set[str]:
    own = list(_own_scope(func))
    stored = {n.id for n in own if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    for n in own:
        if isinstance(n, (ast.Global, ast.Nonlocal)):
            stored -= set(n.names)
    # reads in nested definitions count: closures read the enclosing locals
    read = {
        n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return stored - read - {"_"}


def test_package_functions_read_every_local_they_assign():
    found = [
        f"{path.name}:{node.lineno} {node.name}: {sorted(names)}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, _FUNCTIONS) and (names := _unread_locals(node))
    ]
    assert found == [], f"locals assigned but never read: {found}"
