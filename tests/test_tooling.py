"""Checks on the source tree itself."""

import ast
import os

import gradedroots

SRC = os.path.dirname(gradedroots.__file__)


def test_no_assert_statements_in_package():
    """`python -O` strips assert statements, so every runtime check in the
    package raises a named error instead (InvariantViolated or one of its
    subclasses)."""
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as f:
                tree = ast.parse(f.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
