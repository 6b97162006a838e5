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


def test_oracle_is_integer_only():
    """The oracle is the independent check of the engine, so its arithmetic
    stays exact integers: no module of it imports fractions, and its only
    square root is math.isqrt."""
    found = []
    for name in ("oracle.py", "_kernels.py"):
        with open(os.path.join(SRC, name)) as f:
            tree = ast.parse(f.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                mods = []
            found += [f"{name}:{node.lineno} imports {m}" for m in mods
                      if m.split(".")[0] == "fractions"]
            if isinstance(node, ast.Attribute) and "sqrt" in node.attr:
                if not (node.attr == "isqrt" and isinstance(node.value, ast.Name)
                        and node.value.id == "math"):
                    found.append(f"{name}:{node.lineno} uses {node.attr}")
            elif isinstance(node, (ast.Name, ast.alias)):
                ident = node.id if isinstance(node, ast.Name) else (node.asname or node.name)
                if "sqrt" in ident:
                    found.append(f"{name}:{node.lineno} uses {ident}")
    assert not found, f"non-integer arithmetic in the oracle: {found}"
