"""Every private function or method of the package is used, and every public
one has a caller or is kept as API for a stated reason: a refactor that
leaves a helper behind is caught here."""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "lgtft"
BENCH = SOURCES.parents[1] / "bench"

# public functions and methods that nothing in src/lgtft or bench/ calls, kept
# as API; the tests call each of them
PUBLIC_API = {
    "apply_iota": "koszul: applies the differential, to re-check a report's witness",
    "boundary_trace": "TFTDatum: the boundary trace of one class of End(a)",
    "coefficient": "Polynomial: the coefficient at one exponent tuple",
    "conjugate": "GaussianRational: complex conjugation",
    "contains": "GroebnerBasis: ideal membership, the basis's own query",
    "evaluate": "Polynomial: the value at a point",
    "from_dense": "SparseMatrix: a matrix from nested lists",
    "is_critical_set_finite": "jacobi: exported; the finiteness test with no job",
    "koszul_hom_dims": "certificate: the certified (even, odd) dimensions of a Hom, "
    "which HomCohomology reads off the model it keeps",
    "nullspace": "SparseMatrix: the canonical kernel basis; bench/tracer.py wraps it",
    "of_poly": "ResidueTrace: the trace of any polynomial, not only basis products",
    "parse_polynomial": "poly: exported; parses a string with no ring at hand",
    "solve": "SparseMatrix: A x = b, the linear algebra module's basic query",
    "to_strings": "PolyMatrix: its entries as the strings a job file holds",
    "zero_class": "HomCohomology: the zero class of a parity",
}


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


def test_every_public_function_has_a_caller():
    """A public function or method of the package that nothing in src/lgtft
    or bench/ calls by name is dead, unless PUBLIC_API keeps it with its
    reason.  The package's export list is no caller.  An allowlisted name
    that gains a caller, or is gone, must leave the list."""
    defined = []  # (file, line, name)
    called = set()
    paths = sorted(SOURCES.glob("*.py")) + sorted(BENCH.glob("*.py"))
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if path.parent == SOURCES and not node.name.startswith("_"):
                    defined.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                called.add(node.id)
            elif isinstance(node, ast.Attribute):
                called.add(node.attr)
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                called.add(node.name)
    dead = [
        f"{file}:{line} {name}"
        for file, line, name in defined
        if name not in called and name not in PUBLIC_API
    ]
    assert not dead, "public functions nothing calls: " + ", ".join(dead)
    names = {name for _, _, name in defined}
    stale = sorted(name for name in PUBLIC_API if name in called or name not in names)
    assert not stale, "PUBLIC_API names with a caller or no definition: " + ", ".join(stale)
