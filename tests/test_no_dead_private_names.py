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
