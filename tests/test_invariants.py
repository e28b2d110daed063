"""Package invariants must hold under ``python -O``, which strips asserts."""

import ast
from pathlib import Path

import coexsim

SRC = Path(coexsim.__file__).parent


def test_package_has_no_bare_assert():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
