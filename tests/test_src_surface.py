"""No test-only code in the package: every top-level function or class in
``src/chunknet`` is used by the package itself or exported in
``chunknet.__all__``. Helpers that only tests call belong in ``tests/``."""

import ast
from pathlib import Path

import chunknet

PACKAGE = Path(chunknet.__file__).parent


def definitions_and_uses():
    """Top-level definitions as ``(module, name)`` pairs, and every name
    the package's code mentions outside a definition's own name."""
    defined = []
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((path.name, node.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return defined, used


def test_every_top_level_definition_is_used_or_exported():
    defined, used = definitions_and_uses()
    assert defined
    unused = [f"{module}:{name}" for module, name in defined
              if name not in used and name not in chunknet.__all__]
    assert not unused, f"defined but never used or exported: {unused}"
