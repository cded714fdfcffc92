"""Checks of the package's source as text: no module-level private name is
left without a use."""

import ast
from pathlib import Path

import tailshape

MODULES = sorted(Path(tailshape.__file__).parent.glob("*.py"))


def _private_definitions(tree):
    """The module-level functions, classes and assigned names of ``tree``
    that start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _references(tree):
    """The names that ``tree`` reads, deletes or reads as an attribute: an
    assignment target is a definition, and a docstring mentions no name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    ]
    assert not unused
