"""Buchberger's algorithm, normal forms, and staircase combinatorics."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import lgtft.groebner
from lgtft.groebner import GroebnerBasis, normal_form, s_polynomial
from lgtft.jacobi import (
    hessian_determinant,
    jacobi_groebner,
    raise_exponent,
)
from lgtft.lgpair import make_lg_pair
from lgtft.poly import PolyRing, Polynomial
from lgtft.scalars import GaussianRational

from both_modes import run_both_modes
from oracles import _embed, bezoutian_determinant, division_normal_form


@pytest.fixture
def rxy():
    return PolyRing(["x", "y"])


def test_principal_ideal_monic(rxy):
    gb = GroebnerBasis.compute([rxy.parse("3*x^2")])
    assert [str(g) for g in gb.generators] == ["x^2"]


def test_already_reduced(rxy):
    gb = GroebnerBasis.compute([rxy.parse("x"), rxy.parse("y")])
    assert {str(g) for g in gb.generators} == {"x", "y"}


def test_x2y_jacobi_ideal(rxy):
    # the partials of x^2*y generate (2xy, x^2)
    gb = GroebnerBasis.compute([rxy.parse("2*x*y"), rxy.parse("x^2")])
    leads = {g.leading_term()[0] for g in gb.generators}
    assert leads == {(2, 0), (1, 1)}  # staircase excludes x^2 and x*y
    assert not gb.is_zero_dimensional()  # no pure power of y


def test_normal_form_examples():
    rx = PolyRing(["x"])
    gb = GroebnerBasis.compute([rx.parse("x^2")])
    assert gb.normal_form(rx.parse("x^3")).is_zero()
    assert gb.normal_form(rx.parse("x+1")) == rx.parse("x+1")
    assert gb.normal_form(rx.parse("x^2+x")) == rx.parse("x")


def test_normal_form_idempotent_and_linear(rxy):
    gb = GroebnerBasis.compute([rxy.parse("x^2 - y"), rxy.parse("y^2")])
    rng = random.Random(3)
    for _ in range(25):
        p = _random_poly(rxy, rng)
        q = _random_poly(rxy, rng)
        nf_p = gb.normal_form(p)
        assert gb.normal_form(nf_p) == nf_p
        assert gb.normal_form(p + q) == gb.normal_form(p) + gb.normal_form(q)
        # membership: p - NF(p) lies in the ideal
        assert gb.normal_form(p - nf_p).is_zero()


def test_buchberger_criterion_on_random_ideals(rxy):
    rng = random.Random(11)
    for _ in range(15):
        gens = [_random_poly(rxy, rng) for _ in range(rng.randint(1, 3))]
        gens = [p for p in gens if not p.is_zero()]
        if not gens:
            continue
        gb = GroebnerBasis.compute(gens)  # verify() runs inside
        for i in range(len(gb.generators)):
            for j in range(i):
                s = s_polynomial(gb.generators[i], gb.generators[j])
                assert normal_form(s, gb.generators).is_zero()
        # original generators are in the ideal
        for p in gens:
            assert gb.contains(p)


def test_unit_ideal_staircase(rxy):
    gb = GroebnerBasis.compute([rxy.parse("x + 1"), rxy.parse("x")])
    assert gb.is_zero_dimensional()
    assert gb.standard_monomials() == []


def test_staircase_enumeration():
    rx = PolyRing(["x", "y"])
    gb = GroebnerBasis.compute([rx.parse("x^2"), rx.parse("y^2")])
    monomials = gb.standard_monomials()
    assert set(monomials) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    infinite = GroebnerBasis.compute([rx.parse("x^2"), rx.parse("x*y")])
    with pytest.raises(ValueError):
        infinite.standard_monomials()


def _random_poly(ring, rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = (rng.randint(0, 3), rng.randint(0, 3))
        terms[exps] = rng.randint(-4, 4)
    return ring.from_terms(terms)


def _same_remainder(p, divisors):
    """normal_form equals the division oracle term for term, in order."""
    got = list(normal_form(p, divisors).terms.items())
    return got == list(division_normal_form(p, divisors).terms.items())


_R3 = PolyRing(["x", "y", "z"])
_coeffs = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-1, 1))
_monomials = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))


def _polys(max_size):
    return st.dictionaries(_monomials, _coeffs, max_size=max_size).map(
        _R3.from_terms
    )


_divisor_lists = st.lists(
    _polys(3).filter(lambda g: not g.is_zero()), min_size=2, max_size=3
)


@given(_polys(8), _divisor_lists)
@settings(max_examples=150, deadline=None)
def test_normal_form_matches_the_division_loop(p, divisors):
    """Random divisor lists are rarely Groebner bases, and on about a third
    of these draws the remainder depends on their order; both orders must
    match the oracle."""
    assert _same_remainder(p, divisors)
    assert _same_remainder(p, divisors[::-1])


def test_normal_form_takes_the_first_divisor_that_divides(rxy):
    p, f, g = rxy.parse("x*y"), rxy.parse("x*y - y"), rxy.parse("x*y - x")
    assert normal_form(p, [f, g]) == rxy.parse("y")
    assert normal_form(p, [g, f]) == rxy.parse("x")


def _division_loop_divide(terms, reducers):
    """groebner._divide by the textbook division loop, each reducer turned
    back into its divisor."""
    if not terms:
        return {}
    ring = PolyRing([f"v{k}" for k in range(len(next(iter(terms))))])
    divisors = [
        Polynomial(ring, {lead: inverse.inverse(), **dict(tail)})
        for lead, inverse, tail in reducers
    ]
    return division_normal_form(Polynomial(ring, dict(terms)), divisors).terms


# the superpotentials of the benchmark's job templates
BENCH_WS = [
    (["x", "y"], "x^5*y+y^6"),
    (["x", "y", "z"], "x^6+y^6+z^6"),
    (["x", "y", "z"], "x^3+y^3+z^3+x*y*z^2"),
    (["x", "y"], "x^5+y^5+x^2*y^2"),
    (["x", "y"], "x^4+y^4"),
    (["x", "y"], "x^4+y^4+x*y^2"),
]


@pytest.mark.parametrize("variables,w", BENCH_WS)
def test_jacobi_ideal_work_matches_the_division_loop(monkeypatch, variables, w):
    """Buchberger, interreduction and verify give the same basis with the
    division loop in place of their division by kept reducers, and the M_k
    products and the Hessian reduce to the same remainders."""
    lg = make_lg_pair(variables, w)
    gb = jacobi_groebner(lg)
    with monkeypatch.context() as patch:
        patch.setattr(lgtft.groebner, "_divide", _division_loop_divide)
        oracle = jacobi_groebner(lg)
    assert [list(g.terms.items()) for g in gb.generators] == [
        list(g.terms.items()) for g in oracle.generators
    ]
    ring = lg.ring
    products = [
        ring.monomial(raise_exponent(b, k))
        for b in gb.standard_monomials()
        for k in range(ring.nvars)
    ]
    for p in products + [hessian_determinant(lg)]:
        assert _same_remainder(p, gb.generators)


@pytest.mark.parametrize("variables,w", BENCH_WS)
def test_basis_normal_form_builds_its_reducers_once(monkeypatch, variables, w):
    """GroebnerBasis.normal_form reads no leading term: the basis keeps the
    reducers Buchberger's algorithm built (it read each generator's leading
    term on the first normal form when it built them there).  Its remainders
    equal the division loop's term for term, in order, on the M_k products
    and the Hessian."""
    lg = make_lg_pair(variables, w)
    gb = jacobi_groebner(lg)
    ring = lg.ring
    dividends = [
        ring.monomial(raise_exponent(b, k))
        for b in gb.standard_monomials()
        for k in range(ring.nvars)
    ] + [hessian_determinant(lg)]
    calls = []
    leading_term = Polynomial.leading_term

    def counting(self):
        calls.append(self)
        return leading_term(self)

    monkeypatch.setattr(Polynomial, "leading_term", counting)
    remainders = [gb.normal_form(p) for p in dividends]
    assert calls == []
    monkeypatch.undo()
    for p, remainder in zip(dividends, remainders):
        expected = division_normal_form(p, gb.generators)
        assert list(remainder.terms.items()) == list(expected.terms.items())


def test_fermat6_bezoutian_matches_the_division_loop():
    """The reduction behind the residue trace of x^6+y^6+z^6: 125 terms,
    all already standard."""
    lg = make_lg_pair(["x", "y", "z"], "x^6+y^6+z^6")
    gb = jacobi_groebner(lg)
    ring2 = PolyRing(["x", "y", "z", "x_y", "y_y", "z_y"])
    delta = bezoutian_determinant(lg, ring2)
    combined = [_embed(g, ring2, 0, 3) for g in gb.generators] + [
        _embed(g, ring2, 3, 3) for g in gb.generators
    ]
    assert len(delta.terms) == 125
    assert _same_remainder(delta, combined)


_VERIFY_SCRIPT = """
import lgtft.groebner
from lgtft.errors import InternalCheckError
from lgtft.groebner import GroebnerBasis
from lgtft.poly import PolyRing

ring = PolyRing(["x", "y"])
s_polynomial = lgtft.groebner.s_polynomial
calls = []


def counting(f, g):
    calls.append((f, g))
    return s_polynomial(f, g)


lgtft.groebner.s_polynomial = counting
# monic and reduced, but S(x^2 + y, x*y) = y^2 is irreducible
try:
    GroebnerBasis(ring, [ring.parse("x^2 + y"), ring.parse("x*y")]).verify()
except InternalCheckError as exc:
    print("raised:", exc, len(calls))
else:
    print("passed")
del calls[:]
# leading monomials x^2 and y^3 are coprime: no S-polynomial
GroebnerBasis(ring, [ring.parse("x^2 + y"), ring.parse("y^3")]).verify()
print("coprime pairs reduced:", len(calls))
"""


def test_verify_fails_closed_and_skips_coprime_pairs():
    """verify raises on a monic, reduced set that is not a Groebner basis,
    whose one pair has leading monomials sharing x; a set whose leading
    monomials are pairwise coprime needs no S-polynomial.  Plain and under
    python -O."""
    for out in run_both_modes(_VERIFY_SCRIPT).values():
        assert out.splitlines() == [
            "raised: Buchberger criterion failed 1",
            "coprime pairs reduced: 0",
        ]

