"""No test-only code in the package: every top-level function or class in
``src/chunknet`` is used by the package itself or exported in
``chunknet.__all__``, and every method, property and exported name is used
by the package's own modules. Helpers that only tests call belong in
``tests/``."""

import ast
from pathlib import Path

import chunknet

PACKAGE = Path(chunknet.__file__).parent

# Public names that no module of the package uses, each with its reason.
USED_OUTSIDE_SRC = {
    # derived view of a node's index; the benchmark reads the root fan-out
    "Node.children",
}


def _trees():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.glob("*.py"))]


def _uses(tree) -> set:
    """Every name a module mentions outside a definition's own name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def definitions_and_uses():
    """Top-level definitions as ``(module, name)`` pairs, and every name
    the package's code mentions outside a definition's own name."""
    defined = []
    used = set()
    for module, tree in _trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((module, node.name))
        used |= _uses(tree)
    return defined, used


def test_every_top_level_definition_is_used_or_exported():
    defined, used = definitions_and_uses()
    assert defined
    unused = [f"{module}:{name}" for module, name in defined
              if name not in used and name not in chunknet.__all__]
    assert not unused, f"defined but never used or exported: {unused}"


def test_every_method_property_and_export_is_used_in_src():
    # The package's re-exports in __init__.py do not count as uses.
    used = set()
    public = []
    for module, tree in _trees():
        if module != "__init__.py":
            used |= _uses(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                public += [(f"{cls.name}.{node.name}", node.name)
                           for node in cls.body
                           if isinstance(node, ast.FunctionDef)
                           and not node.name.startswith("__")]
            elif isinstance(cls, (ast.FunctionDef, ast.ClassDef)) and \
                    cls.name in chunknet.__all__:
                public.append((f"{module[:-3]}.{cls.name}", cls.name))
    assert public
    unused = [label for label, name in public
              if name not in used and label not in USED_OUTSIDE_SRC]
    assert not unused, f"only reached from outside src/: {unused}"
    stale = USED_OUTSIDE_SRC - {label for label, _ in public}
    assert not stale, f"allow-list names no definition: {stale}"
