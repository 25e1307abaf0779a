"""Checks in the library must survive ``python -O``, which strips ``assert``."""

import ast
from pathlib import Path

import sdgzsl


def test_library_has_no_assert_statements():
    root = Path(sdgzsl.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
