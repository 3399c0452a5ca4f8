"""Every private function or method of the package is used: a refactor that
leaves a helper behind is caught here."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "lgtft"


def _trees():
    for path in sorted(SOURCES.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_every_private_function_is_referenced():
    defined = []  # (file, line, name)
    referenced = set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_private(node.name):
                    defined.append((name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    dead = [
        f"{file}:{line} {name}" for file, line, name in defined if name not in referenced
    ]
    assert not dead, "private functions nothing calls: " + ", ".join(dead)


def _slot_names(cls):
    """The names a class body lists in __slots__, a string or a sequence."""
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__"
            for target in node.targets
        ):
            value = node.value
            items = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
            yield from (item.value for item in items if isinstance(item, ast.Constant))


def test_every_slot_is_read():
    """A slot that is only ever written holds data nothing uses: a refactor
    that moves a field elsewhere and leaves its slot behind is caught here."""
    slots = []  # (file, class, name)
    read = set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                slots.extend((name, node.name, slot) for slot in _slot_names(node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert slots
    dead = [f"{file} {cls}.{slot}" for file, cls, slot in slots if slot not in read]
    assert not dead, "slots nothing reads: " + ", ".join(dead)
