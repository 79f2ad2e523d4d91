"""Checks on the package source itself."""

import ast
from pathlib import Path

import equiline

SOURCES = sorted(Path(equiline.__file__).parent.glob("*.py"))


def test_sources_found():
    assert len(SOURCES) >= 10


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so no runtime check may use one
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in equiline: {found}"
