"""Runtime invariants must survive `python -O`, which strips `assert`."""

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
