"""The category layer's exact self-checks: d^2 = 0 on every complex a job
builds (FreeComplex._check_square_zero) and associativity of composition in
the brane category (tft._associativity_sweep).

Both fail closed, plain and under python -O, give the verdict of the code
they replaced (tests/oracles.py) on every reference job and on corruptions,
and keep their full scope: every generator of every complex, every basis
triple of every four objects.
"""

import pytest

import lgtft.tft
from lgtft.complex import FreeComplex
from lgtft.errors import InternalCheckError
from lgtft.jobs import JobSpec, run_job
from lgtft.scalars import GaussianRational

from both_modes import run_both_modes
from oracles import polynomial_square_zero, product_associative
from test_reference_reports import JOBS as REFERENCE_JOBS

_SQUARE_ZERO_SCRIPT = """
from fractions import Fraction

from lgtft.complex import FreeComplex
from lgtft.errors import InternalCheckError
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import _defect_complex, koszul_factorization
from lgtft.poly import PolyRing
from lgtft.scalars import GaussianRational


def verdict(check):
    try:
        check()
    except InternalCheckError:
        return "raised"
    return "passed"


# d(a) = x/3 b + i y c, d(b) = y e, d(c) = (i/3) x e: d(d(a)) = (1/3 + i * i/3) xy e
# cancels exactly; with d(c) = (2i/3) x e it is -(1/3) xy e
ring = PolyRing(["x", "y"])
x, y = ring.parse("x"), ring.parse("y")
third, i = GaussianRational(Fraction(1, 3)), GaussianRational(0, 1)


def small(c_coeff):
    entries = {
        "a": [("b", x * third), ("c", y * i)],
        "b": [("e", y)],
        "c": [("e", x * c_coeff)],
        "e": [],
    }
    generators = {0: [("a", 0)], 1: [("b", 0), ("c", 0)], 2: [("e", 0)]}
    return lambda: FreeComplex(ring, generators, {0: 1, 1: 2}, entries.get)


print(verdict(small(i * third)), verdict(small(2 * i * third)))

# Hom(A, B) of the baseline datum: scale the first entry of each generator's
# differential in turn by 2
lg = make_lg_pair(["x", "y"], "x^4+y^4")
a = koszul_factorization(lg, [("x", "x^3"), ("y", "y^3")])
b = koszul_factorization(lg, [("x^2", "x^2"), ("y", "y^3")])
complex_ = _defect_complex(a, b, True)
verdicts = []
for label, images in list(complex_.entries.items()):
    target, p = images[0]
    complex_.entries[label] = ((target, p * 2),) + images[1:]
    verdicts.append(verdict(complex_._check_square_zero))
    complex_.entries[label] = images
print(len(verdicts), *sorted(set(verdicts)), verdict(complex_._check_square_zero))
"""


def test_square_zero_fails_closed_on_a_corrupted_entry():
    """A small complex whose d^2 cancels only with its exact coefficients
    raises once one coefficient is doubled, and a real defect complex raises
    with the first entry of any one of its 16 generators doubled; both
    uncorrupted pass.  Also under python -O."""
    for flags, stdout in run_both_modes(_SQUARE_ZERO_SCRIPT).items():
        assert stdout.split() == [
            "passed", "raised", "16", "raised", "passed"
        ], flags


_ASSOCIATIVITY_SCRIPT = """
from lgtft.lgpair import make_lg_pair
from lgtft.matfact import koszul_factorization
from lgtft.scalars import GaussianRational
from lgtft.tft import build_tft_datum, verify_tft_datum

lg = make_lg_pair(["x"], "x^4")
branes = [
    ("M1", koszul_factorization(lg, [("x", "x^3")])),
    ("M2", koszul_factorization(lg, [("x^2", "x^2")])),
]
datum = build_tft_datum(lg, branes)
print(verify_tft_datum(datum).clause("category_associativity").status)
# End(M2): the square of the unit class, scaled by 2 on its support
table = datum.branes._tensors[(1, 1, 1)]
table[(0, 0)] = {c: 2 * value for c, value in table[(0, 0)].items()}
print(verify_tft_datum(datum).clause("category_associativity").status)
"""


def test_associativity_fails_closed_on_a_scaled_tensor_entry():
    """A tensor entry scaled on its support fails the associativity clause
    instead of raising, plain and under python -O."""
    for flags, stdout in run_both_modes(_ASSOCIATIVITY_SCRIPT).items():
        assert stdout.split() == ["pass", "fail"], flags


def _square_zero(complex_) -> bool:
    try:
        complex_._check_square_zero()
    except InternalCheckError:
        return False
    return True


def _associative(branes) -> bool:
    return lgtft.tft._associativity_sweep(branes)[1]


def _run_recording(monkeypatch, spec):
    """Run a job; return the complexes whose d^2 it checked and the brane
    categories whose axioms it checked."""
    complexes, categories = [], []
    check_square_zero = FreeComplex._check_square_zero
    check_category = lgtft.tft._check_category

    def recording_square_zero(self):
        complexes.append(self)
        check_square_zero(self)

    def recording_category(datum, report):
        categories.append(datum.branes)
        check_category(datum, report)

    with monkeypatch.context() as patch:
        patch.setattr(FreeComplex, "_check_square_zero", recording_square_zero)
        patch.setattr(lgtft.tft, "_check_category", recording_category)
        run_job(spec)
    return complexes, categories


def _full_sweep_size(branes) -> int:
    objects = range(len(branes))
    size = {(i, j): len(branes.basis(i, j)) for i in objects for j in objects}
    return sum(
        size[i, j] * size[j, k] * size[k, t]
        for i in objects
        for j in objects
        for k in objects
        for t in objects
    )


@pytest.mark.parametrize(
    "name", sorted(name for name, raw in REFERENCE_JOBS.items() if raw.get("branes"))
)
def test_self_checks_agree_with_their_oracles(monkeypatch, name):
    """On every complex and brane category of a reference job with branes,
    and on corruptions of each, the flat-term d^2 check and the tensor
    contraction give the verdicts of the Polynomial-sum check and the
    product-based sweep.  The corruptions: each generator's first entry
    doubled; each nonzero row of the last object's End tensor with one entry
    doubled, its support kept; and, on the category's tensors zeroed (a zero
    composition is associative), y o x = y and x o x = x + y in the last
    End, for x and y its last and first basis classes: x o (x o x) = x + y
    but (x o x) o x = x + 2y, and every other triple of the sweep agrees, so
    only a sweep that reaches its very last triple fails it."""
    complexes, categories = _run_recording(
        monkeypatch, JobSpec.from_dict(REFERENCE_JOBS[name])
    )
    assert complexes
    for complex_ in complexes:
        assert _square_zero(complex_) and polynomial_square_zero(complex_)
        for label, images in list(complex_.entries.items()):
            if not images:
                continue
            target, p = images[0]
            complex_.entries[label] = ((target, p * 2),) + images[1:]
            assert _square_zero(complex_) == polynomial_square_zero(complex_)
            complex_.entries[label] = images
    assert len(categories) == (REFERENCE_JOBS[name]["compute"] == "all")
    for branes in categories:
        assert _associative(branes) and product_associative(branes)
        last = len(branes) - 1
        table = branes._tensors[(last, last, last)]
        verdicts = []
        for key, row in list(table.items()):
            if not row:
                continue
            c, value = next(iter(row.items()))
            table[key] = {**row, c: 2 * value}
            verdicts.append(_associative(branes))
            assert verdicts[-1] == product_associative(branes)
            table[key] = row
        assert not all(verdicts)
        x = len(branes.basis(last, last)) - 1
        if x == 0:
            continue  # any product on a one-dimensional End is associative
        for tensor in branes._tensors.values():
            for key in tensor:
                tensor[key] = {}
        one = GaussianRational(1)
        table[(0, x)] = {0: one}
        table[(x, x)] = {0: one, x: one}
        assert not product_associative(branes)
        full = _full_sweep_size(branes)
        assert lgtft.tft._associativity_sweep(branes) == (full, False)


def test_self_checks_keep_their_scope_on_the_baseline(monkeypatch):
    """On the baseline datum (x^4+y^4, branes A and B), a job checks d^2 once
    on each of the 5 complexes it builds (4 defect complexes and the Koszul
    complex), and the associativity sweep runs once and compares
    sum |B(i, j)| |B(j, k)| |B(k, t)| = 2 176 pairs of sides (the Hom bases
    have 4, 4, 4 and 8 classes)."""
    spec = JobSpec.from_dict(
        {
            "variables": ["x", "y"],
            "superpotential": "x^4+y^4",
            "branes": [
                {"name": "A", "pairs": [["x", "x^3"], ["y", "y^3"]]},
                {"name": "B", "pairs": [["x^2", "x^2"], ["y", "y^3"]]},
            ],
        }
    )
    calls = {"complexes": 0, "square_zero": 0}
    sweeps = []
    init = FreeComplex.__init__
    check_square_zero = FreeComplex._check_square_zero
    sweep = lgtft.tft._associativity_sweep

    def counting_init(self, *args, **kwargs):
        calls["complexes"] += 1
        init(self, *args, **kwargs)

    def counting_square_zero(self):
        calls["square_zero"] += 1
        check_square_zero(self)

    def recording_sweep(branes):
        result = sweep(branes)
        sweeps.append((_full_sweep_size(branes), result))
        return result

    monkeypatch.setattr(FreeComplex, "__init__", counting_init)
    monkeypatch.setattr(FreeComplex, "_check_square_zero", counting_square_zero)
    monkeypatch.setattr(lgtft.tft, "_associativity_sweep", recording_sweep)
    report = run_job(spec)
    assert report["results"]["tft"]["passed"]
    assert calls == {"complexes": 5, "square_zero": 5}
    assert sweeps == [(2176, (2176, True))]
