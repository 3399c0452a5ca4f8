"""The package's self-checks raise errors: a bare assert is skipped under python -O."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "lgtft"

# (file, message) of asserts allowed to remain; every self-check now raises,
# so the list is empty and must stay so
ALLOWED = set()


def _asserts():
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                message = ast.unparse(node.msg) if node.msg is not None else ""
                yield path.name, message.strip("'\""), node.lineno


def test_no_bare_asserts_beyond_the_allowed_list():
    found = list(_asserts())
    unexpected = [
        f"{name}:{line} {message!r}"
        for name, message, line in found
        if (name, message) not in ALLOWED
    ]
    assert not unexpected, "bare asserts: " + ", ".join(unexpected)
    # the allow-list names only asserts that still exist
    assert {(name, message) for name, message, _ in found} == ALLOWED
