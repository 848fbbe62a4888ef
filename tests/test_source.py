"""Checks over the package's own source."""

import ast
from pathlib import Path

import htsp

SRC = Path(htsp.__file__).resolve().parent


def test_no_bare_assert_in_the_package():
    """Every check that certifies exactness raises an ``HtspError``: an
    ``assert`` statement would vanish under ``python -O``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
