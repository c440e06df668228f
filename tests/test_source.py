"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import hyplat

PACKAGE_DIR = Path(hyplat.__file__).resolve().parent


def test_no_assert_statements():
    """Certificate checks must survive ``python -O``, which strips asserts."""
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in the package: " + ", ".join(found)


def test_no_sympy_imports():
    """sympy is a test-time oracle only; the package has no runtime
    dependency."""
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "sympy" for name in names):
                found.append(f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}")
    assert not found, "sympy imports in the package: " + ", ".join(found)
