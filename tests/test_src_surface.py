"""No test-only code in the package: every top-level function or class in
``src/chunknet`` is used by the package itself or exported in
``chunknet.__all__``, and every method, property and exported name is used
by the package's own modules. Helpers that only tests call belong in
``tests/``.

And no test reaches into the net: the reference model shares no code with
the package, no test subclasses the package's learning classes, and only
the unit tests of the remembered walks touch the net's private parts."""

import ast
from pathlib import Path

import chunknet
from chunknet.network import DiscriminationNet, Node
from chunknet.patterns import Pattern

PACKAGE = Path(chunknet.__file__).parent
TESTS = Path(__file__).parent

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


def test_the_reference_imports_nothing_from_the_package():
    tree = ast.parse((TESTS / "reference.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert not [name for name in imported
                if name.split(".")[0] in ("chunknet", "")], imported


# The net's private methods and its remembered walks, which only the unit
# tests of the memo itself may touch: three classes of test_network.py, and
# the ``_walks`` checks of test_snapshot.py.
PRIVATE = {"_new_node", "_append_to_image", "_step", "_walks"}
MEMO_CLASSES = {"TestSettledLearns", "TestRememberedWalks",
                "TestTheRepeatCheck"}
LEARNING_CLASSES = {"DiscriminationNet", "MultiModalMemory", "Trainer"}


def _memo_test(module, where, name):
    return (module == "test_network.py" and where in MEMO_CLASSES) or \
        (module == "test_snapshot.py" and name == "_walks")


def _reaches_in(module, tree, where=None):
    """``module:line name`` for each subclass of a learning class in
    ``tree``, and each private use outside the memo tests; ``where`` is the
    enclosing class."""
    found = []
    for node in ast.iter_child_nodes(tree):
        inside = where
        if isinstance(node, ast.ClassDef):
            inside = node.name
            found += [f"{module}:{node.lineno} {node.name}"
                      for base in node.bases
                      if ast.unparse(base).split(".")[-1] in LEARNING_CLASSES]
        elif isinstance(node, ast.Attribute) and node.attr in PRIVATE and \
                not _memo_test(module, where, node.attr):
            found.append(f"{module}:{node.lineno} {node.attr}")
        found += _reaches_in(module, node, inside)
    return found


def test_no_test_reaches_into_the_net():
    found = []
    for path in sorted(TESTS.glob("*.py")):
        found += _reaches_in(path.name, ast.parse(
            path.read_text(encoding="utf-8")))
    assert not found, f"tests that subclass or open the net: {found}"


def test_node_attribute_reads_stay_plain():
    # Measured with Python 3.11 on a shared 2-CPU host: a ``__getattr__`` on
    # ``Node`` stops the interpreter specialising attribute loads on the
    # class, and raised build-and-query ``categorise_ms.p50`` by 25-30%; a
    # property on every ``Node.image`` took about 253k property calls per
    # training and raised ``train_s`` by about 12%. So only a loaded node
    # reads its image through a property, and a learned node's image is a
    # plain attribute.
    tree = ast.parse((PACKAGE / "network.py").read_text(encoding="utf-8"))
    hooks = [f"{cls.name}.{node.name}" for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef)
             and node.name in ("__getattr__", "__getattribute__")]
    assert not hooks, hooks
    net = DiscriminationNet("visual")
    node = net.node(net.learn(Pattern("visual", ("a", "b"))).node_id)
    assert type(node) is Node
    assert "image" in vars(node) and not hasattr(Node, "image")
