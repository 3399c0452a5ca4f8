"""Jacobi algebras, Milnor numbers, the residue trace, and the weights of W."""

import itertools
import json
import random
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from lgtft.certificate import _finite_colength_ideal
from lgtft.errors import DegenerateTraceError, NonIsolatedCriticalLocusError
from lgtft.groebner import GroebnerBasis
from lgtft.jacobi import (
    JacobiAlgebra,
    _bezoutian_rows,
    hessian_determinant,
    is_critical_set_finite,
    jacobi_algebra,
    jacobi_groebner,
    milnor_number,
    residue_trace,
)
from lgtft.lgpair import detect_weights, make_lg_pair
from lgtft.matfact import koszul_factorization
from lgtft.poly import PolyRing, Polynomial
from lgtft.scalars import GaussianRational
from lgtft.tft import build_tft_datum, verify_tft_datum

from both_modes import run_both_modes
from oracles import (
    _divided_difference,
    _embed,
    _substitute_var,
    loop_divided_difference,
    normal_form_table,
    nullspace_detect_weights,
    residue_one_var,
    staircase_count,
    table_is_associative,
    two_ring_residue_trace,
)


def test_milnor_one_variable_powers():
    for n in range(2, 10):
        lg = make_lg_pair(["x"], f"x^{n}")
        assert milnor_number(lg) == n - 1


def test_milnor_x2():
    lg = make_lg_pair(["x"], "x^2")
    algebra = jacobi_algebra(lg)
    assert algebra.dimension == 1
    assert [str(algebra.basis_poly(0))] == ["1"]


def test_milnor_x3_basis():
    lg = make_lg_pair(["x"], "x^3")
    algebra = jacobi_algebra(lg)
    assert [str(algebra.basis_poly(k)) for k in range(2)] == ["1", "x"]


def test_milnor_x3_plus_y3():
    lg = make_lg_pair(["x", "y"], "x^3+y^3")
    algebra = jacobi_algebra(lg)
    assert algebra.dimension == 4
    assert {str(algebra.basis_poly(k)) for k in range(4)} == {"1", "x", "y", "x*y"}


def test_milnor_quadric_3d():
    lg = make_lg_pair(["x", "y", "z"], "x^2+y^2+z^2")
    assert milnor_number(lg) == 1


def test_milnor_no_critical_points():
    lg = make_lg_pair(["x"], "x")
    assert is_critical_set_finite(lg)
    assert milnor_number(lg) == 0
    assert jacobi_algebra(lg).is_zero_algebra()


def test_staircase_count_oracle_agreement():
    for variables, w in [
        (["x"], "x^5"),
        (["x", "y"], "x^3+y^3"),
        (["x", "y"], "x^4+y^4"),
        (["x", "y", "z"], "x^2+y^2+z^2"),
    ]:
        lg = make_lg_pair(variables, w)
        gb = jacobi_groebner(lg)
        bounds = gb.staircase_bounds()
        expected = staircase_count(gb.leads, bounds)
        assert milnor_number(lg) == expected


def test_non_isolated_critical_set():
    lg = make_lg_pair(["x", "y"], "x^2*y")
    assert not is_critical_set_finite(lg)
    with pytest.raises(NonIsolatedCriticalLocusError):
        jacobi_algebra(lg)


def test_multiplication_table_laws():
    for variables, w in [(["x", "y"], "x^3+y^3"), (["x", "y"], "x^4+y^4")]:
        lg = make_lg_pair(variables, w)
        algebra = jacobi_algebra(lg)
        table = algebra.table
        mu = algebra.dimension
        for a in range(mu):
            for b in range(mu):
                assert table[a][b] == table[b][a]
        assert table_is_associative(table)
        for a in range(mu):
            assert table[algebra.unit_index][a] == {a: GaussianRational(1)}


@pytest.mark.parametrize(
    "variables,w",
    [
        (["x", "y"], "x^5*y+y^6"),
        (["x", "y", "z"], "x^6+y^6+z^6"),
        (["x", "y", "z"], "x^3+y^3+z^3+x*y*z^2"),
        (["x", "y"], "x^5+y^5+x^2*y^2"),
        (["x", "y"], "x^4+y^4"),
        (["x", "y"], "x^2+y^3"),  # x is not a standard monomial
        (["x"], "x^3"),
        (["x", "y"], "x^2+y^2"),  # mu = 1
    ],
)
def test_table_and_associativity_clause_against_oracles(variables, w):
    """The staircase table equals the mu^2 normal-form table, and the
    bulk_associativity verdict equals the mu^3 oracle's."""
    lg = make_lg_pair(variables, w)
    datum = build_tft_datum(lg, [])
    algebra = datum.bulk.algebra
    assert algebra.table == normal_form_table(algebra)
    verdict = verify_tft_datum(datum).clause("bulk_associativity").status
    assert (verdict == "pass") == table_is_associative(algebra.table)
    assert verdict == "pass"


def _baseline_algebras():
    """R/(dW) for W = x^4+y^4, and R/(c) for the ideals (c) that the two
    branes of the ROADMAP baseline datum pick, (x, y) and (x^2, y)."""
    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    algebras = {"jacobi": lg.jacobi_algebra}
    for pairs in ([("x", "x^3"), ("y", "y^3")], [("x^2", "x^2"), ("y", "y^3")]):
        algebra, _, _ = _finite_colength_ideal(koszul_factorization(lg, pairs).pairs)
        algebras[", ".join(sorted(str(g) for g in algebra.gb.generators))] = algebra
    return algebras


_BASELINE_ALGEBRAS = _baseline_algebras()


def test_the_baseline_branes_pick_x_y_and_x2_y():
    assert list(_BASELINE_ALGEBRAS) == ["jacobi", "x, y", "x^2, y"]


@pytest.mark.parametrize("name", list(_BASELINE_ALGEBRAS))
@given(exps=st.tuples(st.integers(0, 6), st.integers(0, 6)))
@settings(max_examples=40, deadline=None)
def test_action_is_the_normal_form_of_each_product(name, exps):
    """Column s of action(e), built from the M_k, is the normal form of
    x^e * m_s, also for exponents outside the staircase, as the certificate's
    block check reads them."""
    algebra = _BASELINE_ALGEBRAS[name]
    ring = algebra.ring
    columns = algebra.action(exps)
    assert len(columns) == algebra.dimension
    for s, column in enumerate(columns):
        product = ring.monomial(exps) * algebra.basis_poly(s)
        assert column == algebra.nf_coords(product)


def test_table_costs_nvars_times_mu_normal_forms(monkeypatch):
    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    lg.jacobi_basis  # computed before the count starts
    calls = []
    original = GroebnerBasis.normal_form

    def counting(self, p):
        calls.append(p)
        return original(self, p)

    monkeypatch.setattr(GroebnerBasis, "normal_form", counting)
    algebra = JacobiAlgebra(lg)
    assert algebra.dimension == 9
    assert len(calls) == 0  # the M_k and the table wait for their first read
    table = algebra.table
    assert len(calls) == lg.ring.nvars * algebra.dimension
    assert algebra.table is table  # a second read makes no normal form
    assert len(calls) == lg.ring.nvars * algebra.dimension


def test_trace_x2_hessian_normalization():
    lg = make_lg_pair(["x"], "x^2")
    trace = residue_trace(lg)
    assert trace.of_poly(lg.ring.parse("2")) == GaussianRational(1)


def test_trace_x3_values():
    lg = make_lg_pair(["x"], "x^3")
    trace = residue_trace(lg)
    assert trace.of_poly(lg.ring.one()) == GaussianRational(0)
    assert trace.of_poly(lg.ring.parse("x")) == GaussianRational(Fraction(1, 3))
    # hessian W'' = 6x satisfies trace = mu = 2
    assert trace.of_poly(lg.ring.parse("6*x")) == GaussianRational(2)


def test_trace_against_one_variable_residue_oracle():
    for w_text in ["x^3", "x^4", "x^5", "x^3 - x", "x^4 + x^2"]:
        lg = make_lg_pair(["x"], w_text)
        algebra = jacobi_algebra(lg)
        trace = residue_trace(lg)
        w_prime = lg.w.partial_derivative(0)
        for k in range(algebra.dimension):
            monomial = algebra.basis_poly(k)
            assert trace.of_poly(monomial) == residue_one_var(monomial, w_prime)


def test_gram_symmetric_and_nondegenerate():
    for variables, w in [(["x"], "x^6"), (["x", "y"], "x^3+y^3")]:
        lg = make_lg_pair(variables, w)
        algebra = jacobi_algebra(lg)
        trace = residue_trace(lg)
        gram = trace.gram
        assert gram == gram.transpose()
        gram.inverse()  # raises if singular


def test_gram_matches_trace_of_products():
    lg = make_lg_pair(["x", "y"], "x^3+y^3")
    algebra = jacobi_algebra(lg)
    trace = residue_trace(lg)
    for a in range(algebra.dimension):
        for b in range(algebra.dimension):
            product = algebra.basis_poly(a) * algebra.basis_poly(b)
            assert trace.gram.get(a, b) == trace.of_poly(product)


def test_trace_scale_configuration():
    lg = make_lg_pair(["x"], "x^3")
    scaled = residue_trace(lg, scale=Fraction(6))
    assert scaled.of_poly(lg.ring.parse("x")) == GaussianRational(2)


def test_unit_scale_trace_scales_nothing(monkeypatch):
    """At scale 1 the trace keeps the unscaled values and Gram rows as they
    are; another scale multiplies both."""
    import lgtft.jacobi

    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    calls = []
    vec_scale = lgtft.jacobi.vec_scale

    def counting(row, scale):
        calls.append(scale)
        return vec_scale(row, scale)

    monkeypatch.setattr(lgtft.jacobi, "vec_scale", counting)
    one = residue_trace(lg)
    assert calls == []
    three = residue_trace(lg, 3)
    assert calls == [GaussianRational(3)] * lg.jacobi_algebra.dimension
    assert three.values == tuple(3 * v for v in one.values)
    assert three.gram.rows == [vec_scale(row, 3) for row in one.gram.rows]
    assert three.gram.rows != one.gram.rows


def test_zero_scaled_gram_stores_no_zeros():
    """Sparse rows hold nonzero values only; a zero scale gives empty rows."""
    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    gram = residue_trace(lg, 0).gram
    assert gram.is_zero()
    assert all(value for row in gram.rows for value in row.values())


def test_trace_zero_algebra_errors():
    lg = make_lg_pair(["x"], "x")
    with pytest.raises(DegenerateTraceError):
        residue_trace(lg)


def test_hessian_determinant():
    lg = make_lg_pair(["x", "y"], "x^3+y^3")
    assert hessian_determinant(lg) == lg.ring.parse("36*x*y")
    # trace of the hessian class equals the Milnor number
    trace = residue_trace(lg)
    assert trace.of_poly(hessian_determinant(lg)) == GaussianRational(4)


_REFERENCE_REPORTS = sorted(
    list((Path(__file__).resolve().parent / "reference").glob("*.json"))
    + list((Path(__file__).resolve().parents[1] / "bench" / "reference").glob("*.json"))
)
_REFERENCE_WS = sorted({
    (tuple(report["lg"]["variables"]), report["lg"]["superpotential"])
    for report in (json.loads(path.read_text()) for path in _REFERENCE_REPORTS)
})
_SCALES = [
    GaussianRational(1),
    GaussianRational(0),
    GaussianRational(Fraction(-3, 2)),
    GaussianRational(Fraction(1, 2), 1),
]


def _holds_to_the_two_ring_route(lg, scale):
    """The trace's values and Gram matrix equal the two-ring route's, entry
    for entry; the pair is fresh, so no kept trace is read."""
    values, gram = two_ring_residue_trace(lg, scale)
    trace = residue_trace(lg, scale)
    return trace.values == values and trace.gram == gram


@pytest.mark.parametrize("variables,w", _REFERENCE_WS)
def test_reference_traces_match_the_two_ring_route(variables, w):
    """Every finite-mu W of the reference reports, at unit and other scales."""
    assert is_critical_set_finite(make_lg_pair(variables, w))
    for scale in _SCALES:
        assert _holds_to_the_two_ring_route(make_lg_pair(variables, w), scale)


_GAUSSIAN = st.builds(
    GaussianRational,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.integers(-2, 2),
)


@st.composite
def _small_finite_ws(draw):
    """(variables, W, scale): W is a sum of pure powers x_k^a_k, prod(a_k -
    1) <= 30, with nonzero Gaussian-rational coefficients, plus up to four
    monomials of weighted degree at most 1 (weights 1/a_k).  Lower terms
    leave mu at prod(a_k - 1) and make W not graded; terms of degree 1 keep
    it graded and can make the critical set infinite, so such draws are
    dropped."""
    nvars = draw(st.integers(1, 3))
    powers = draw(
        st.lists(st.integers(2, 6), min_size=nvars, max_size=nvars).filter(
            lambda a: prod(e - 1 for e in a) <= 30
        )
    )
    ring = PolyRing(("x", "y", "z")[:nvars])
    w = ring.zero()
    for k, a in enumerate(powers):
        exps = tuple(a if j == k else 0 for j in range(nvars))
        w = w + ring.monomial(exps, draw(_GAUSSIAN) or GaussianRational(1))
    below = [
        exps
        for exps in itertools.product(*(range(a) for a in powers))
        if sum(Fraction(e, a) for e, a in zip(exps, powers)) <= 1
    ]
    for exps in draw(st.lists(st.sampled_from(below), max_size=4)):
        w = w + ring.monomial(exps, draw(_GAUSSIAN))
    scale = draw(st.sampled_from(_SCALES))
    return ring.variables, str(w), scale


@given(_small_finite_ws())
@settings(max_examples=80, deadline=2000)
def test_small_traces_match_the_two_ring_route(case):
    """A pool of small W, 1-3 variables, graded and not, mu <= 30, each at
    one of the scales."""
    variables, w, scale = case
    lg = make_lg_pair(variables, w)
    assume(is_critical_set_finite(lg))
    assume(0 < milnor_number(lg) <= 30)
    assert _holds_to_the_two_ring_route(lg, scale)


_CORRUPT_C_SCRIPT = """
import sys
from lgtft.errors import DegenerateTraceError, InternalCheckError
from lgtft.jacobi import residue_trace
from lgtft.lgpair import make_lg_pair
from lgtft.linalg import SparseMatrix

inverse = SparseMatrix.inverse


def corrupted(self):
    # self is C, the Bezoutian's coefficient matrix, before its inverse
    if sys.argv[1] == "coefficient":
        row = next(row for row in self.rows if row)
        col = next(iter(row))
        row[col] = row[col] + 1
    else:
        self.rows[0].clear()
    return inverse(self)


SparseMatrix.inverse = corrupted
for variables, w in [
    (["x", "y"], "x^4+y^4"),
    (["x", "y"], "x^4+y^4+x*y^2"),
    (["x", "y", "z"], "x^3+y^3+z^3+x*y*z^2"),
]:
    try:
        residue_trace(make_lg_pair(variables, w))
    except (DegenerateTraceError, InternalCheckError) as exc:
        print(type(exc).__name__)
    else:
        print("passed")
"""


@pytest.mark.parametrize(
    "corruption,error",
    [("coefficient", "InternalCheckError"), ("row", "DegenerateTraceError")],
)
def test_trace_checks_fail_closed(corruption, error):
    """C with one coefficient changed gives an asymmetric Gram matrix or a
    failed Hessian normalization; C with a zeroed row is singular.  Both
    raise, plainly and under python -O."""
    for out in run_both_modes(_CORRUPT_C_SCRIPT, corruption).values():
        assert out.split() == [error] * 3


def _random_polynomial(rng, ring, terms, max_exp):
    """A sum of random monomials with small Gaussian-rational coefficients;
    repeated exponents and opposite coefficients make some terms cancel."""
    p = ring.zero()
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        coeff = GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-1, 1)
        )
        p = p + ring.monomial(exps, coeff)
    return p


def test_divided_difference_identity_and_loop():
    """Entry (i, j) of the Bezoutian matrix is Delta_i(g_j^(i)), g_j with
    x_0 .. x_(i-1) moved to y: it equals the one-addition-per-term loop and
    the replaced divided difference, and (x_i - y_i) * entry = g_j^(i) -
    g_j^(i+1), on random polynomials in x0, x1, their terms written into
    (x0, x1, y0, y1) with no sum."""
    rng = random.Random(1507)
    ring = PolyRing(("x0", "x1"))
    ring2 = PolyRing(("x0", "x1", "y0", "y1"))
    d = 2
    for _ in range(120):
        partials = [
            _random_polynomial(rng, ring, rng.randint(0, 8), 3) for _ in range(d)
        ]
        rows = _bezoutian_rows(partials, d)
        for j, g in enumerate(partials):
            moved = _embed(g, ring2, 0, d)  # g_j^(i), from i = 0 on
            for i in range(d):
                entry = Polynomial(ring2, rows[i][j])
                assert all(entry.terms.values())
                assert entry == loop_divided_difference(moved, i, d + i)
                assert entry == _divided_difference(moved, i, d + i)
                x_minus_y = ring2.monomial(
                    tuple(int(k == i) for k in range(2 * d))
                ) - ring2.monomial(tuple(int(k == d + i) for k in range(2 * d)))
                next_moved = _substitute_var(moved, i, d + i)
                assert x_minus_y * entry == moved - next_moved
                moved = next_moved
    # the replaced divided difference sums what cancels: x0^2 gives x0 + y0
    # and -x0*y0 gives -y0, so the y0 terms cancel
    p = ring2.parse("x0^2 - x0*y0")
    assert _divided_difference(p, 0, d).terms == {(1, 0, 0, 0): GaussianRational(1)}


def _weighted_terms(draw, nvars):
    """Exponent vectors of one weighted degree, for drawn weights: a
    quasi-homogeneous W when there are any."""
    weights = draw(st.lists(st.integers(1, 4), min_size=nvars, max_size=nvars))
    degree = draw(st.integers(1, 12))
    return [
        exps
        for exps in itertools.product(range(degree + 1), repeat=nvars)
        if sum(e * w for e, w in zip(exps, weights)) == degree
    ]


@st.composite
def _superpotentials(draw):
    """(variables, W): W of one to four terms in one to three variables,
    with exponents up to 4 (absent variables, one-term W, non-quasi-
    homogeneous W, zero kernels), or a subset of the monomials of one
    weighted degree, plus at times a stray term."""
    nvars = draw(st.integers(1, 3))
    pool = []
    if draw(st.booleans()):
        pool = _weighted_terms(draw, nvars)
    if not pool:
        pool = list(itertools.product(range(5), repeat=nvars))
    terms = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        terms.append(draw(st.tuples(*[st.integers(0, 4)] * nvars)))
    variables = ["x", "y", "z"][:nvars]
    coeffs = draw(st.lists(st.integers(1, 5), min_size=len(terms), max_size=len(terms)))
    return variables, {tuple(exps): c for exps, c in zip(terms, coeffs)}


@given(_superpotentials())
@settings(max_examples=300, deadline=None)
def test_detect_weights_matches_the_nullspace_route(case):
    """The integer kernel gives the weights, or None, that the SparseMatrix
    nullspace over Q(i) with Fraction arithmetic gave, for every W."""
    variables, terms = case
    w = PolyRing(variables).from_terms(terms)
    assert detect_weights(w) == nullspace_detect_weights(w)


@pytest.mark.parametrize(
    "variables,w,weights",
    [
        (["x", "y"], "x^4+y^4", (1, 1)),
        (["x", "y"], "x^2*y", (1, 2)),
        (["x", "y", "z"], "x^3+y^2", (2, 3, 6)),
        (["x", "y"], "x^3*y+y^2", (1, 3)),
        (["x", "y"], "x^4+y^4+x*y^2", None),
        (["x", "y"], "x + x^2", None),
    ],
)
def test_detect_weights_examples(variables, w, weights):
    """An absent variable weighs 1 in the units of the kernel vector, whose
    degree entry is 1 (z: 1 against 1/3 and 1/2); a kernel with no positive
    vector, or none at all, gives None."""
    ring = PolyRing(variables)
    parsed = ring.parse(w)
    assert detect_weights(parsed) == weights == nullspace_detect_weights(parsed)
