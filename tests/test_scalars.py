"""Field laws, canonical form and canonical printing for the Gaussian rationals."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from lgtft.lgpair import make_lg_pair
from lgtft.matfact import hom_cohomology, koszul_factorization
from lgtft.poly import PolyRing, grevlex_key, poly_str
from lgtft.scalars import I, MINUS_I, ONE, ZERO, GaussianRational, scalar_str
from oracles import fraction_term_str

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(GaussianRational, rationals, rationals)
nonzero_scalars = scalars.filter(bool)


def test_imaginary_unit_squares_to_minus_one():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)


def test_basic_arithmetic():
    a = GaussianRational(Fraction(1, 2), 1)
    b = GaussianRational(3, Fraction(-1, 3))
    assert a + b == GaussianRational(Fraction(7, 2), Fraction(2, 3))
    assert a * b == GaussianRational(Fraction(11, 6), Fraction(17, 6))
    assert (a / b) * b == a


@given(scalars, scalars, scalars)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(nonzero_scalars)
def test_multiplicative_inverse(a):
    assert a * a.inverse() == GaussianRational(1)
    assert a / a == GaussianRational(1)


@given(scalars)
def test_additive_inverse(a):
    assert a + (-a) == GaussianRational(0)
    assert not (a - a)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


@pytest.mark.parametrize(
    "value,expected",
    [
        (GaussianRational(Fraction(3, 2)), "3/2"),
        (GaussianRational(-1), "-1"),
        (GaussianRational(0), "0"),
        (GaussianRational(0, 1), "i"),
        (GaussianRational(0, -1), "-i"),
        (GaussianRational(0, Fraction(-2, 5)), "-2/5*i"),
        (GaussianRational(1, 2), "1+2*i"),
        (GaussianRational(Fraction(1, 2), -1), "1/2-i"),
    ],
)
def test_canonical_strings(value, expected):
    assert scalar_str(value) == expected


def test_conjugate_and_pow():
    z = GaussianRational(2, 3)
    assert z.conjugate() == GaussianRational(2, -3)
    assert z**0 == GaussianRational(1)
    assert z**3 == z * z * z


# -- the integer representation against a (Fraction, Fraction) oracle --------

small_ints = st.integers(min_value=-7, max_value=7).filter(bool)


def _pair(z):
    return (z.re, z.im)


def _oracle_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _oracle_inverse(p):
    norm = p[0] * p[0] + p[1] * p[1]
    return (p[0] / norm, -p[1] / norm)


def _assert_canonical(z):
    """d > 0, gcd(a, b, d) = 1, and the triple of the value built afresh."""
    a, b, d = z._a, z._b, z._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert gcd(a, b, d) == 1
    fresh = GaussianRational(z.re, z.im)
    assert (fresh._a, fresh._b, fresh._d) == (a, b, d)


@given(scalars, scalars)
def test_ring_operations_match_fraction_pairs(z, w):
    p, q = _pair(z), _pair(w)
    results = [
        (z + w, (p[0] + q[0], p[1] + q[1])),
        (z - w, (p[0] - q[0], p[1] - q[1])),
        (z * w, _oracle_mul(p, q)),
        (-z, (-p[0], -p[1])),
        (z.conjugate(), (p[0], -p[1])),
    ]
    if w:
        results.append((w.inverse(), _oracle_inverse(q)))
        results.append((z / w, _oracle_mul(p, _oracle_inverse(q))))
    for value, expected in results:
        assert _pair(value) == expected
        _assert_canonical(value)


@given(scalars, st.integers(min_value=0, max_value=6))
def test_power_matches_fraction_pairs(z, exponent):
    expected = (Fraction(1), Fraction(0))
    for _ in range(exponent):
        expected = _oracle_mul(expected, _pair(z))
    value = z**exponent
    assert _pair(value) == expected
    _assert_canonical(value)


@given(scalars, rationals, small_ints)
def test_mixed_operands_match_fraction_pairs(z, r, k):
    p = _pair(z)
    for value, expected in [
        (z + r, (p[0] + r, p[1])),
        (r - z, (r - p[0], -p[1])),
        (z * k, (p[0] * k, p[1] * k)),
        (k * z, (p[0] * k, p[1] * k)),
        (z / k, (p[0] / k, p[1] / k)),
    ]:
        assert _pair(value) == expected
        _assert_canonical(value)


@given(rationals, rationals)
def test_equal_values_have_equal_triples(re, im):
    z = GaussianRational(re, im)
    _assert_canonical(z)
    # the same value reached through arithmetic with large denominators
    w = (z * GaussianRational(Fraction(7, 6), 1)) / GaussianRational(Fraction(7, 6), 1)
    assert (w._a, w._b, w._d) == (z._a, z._b, z._d)
    assert w == z and hash(w) == hash(z)
    assert bool(z) == (re != 0 or im != 0)


@given(rationals)
def test_equality_with_int_and_fraction(r):
    z = GaussianRational(r)
    assert z == r and r == z
    assert z != r + 1
    assert GaussianRational(r, 1) != r
    if r.denominator == 1:
        assert z == int(r) and int(r) == z


@pytest.mark.parametrize("bad", [0.5, "1", None, 1j])
def test_non_exact_components_raise_type_error(bad):
    with pytest.raises(TypeError):
        GaussianRational(bad)
    with pytest.raises(TypeError):
        GaussianRational(1, bad)
    with pytest.raises(TypeError):
        GaussianRational.coerce(bad)
    with pytest.raises(TypeError):
        GaussianRational(1) + bad


def test_zero_has_no_inverse():
    for attempt in (
        lambda: GaussianRational(0).inverse(),
        lambda: 1 / GaussianRational(0),
        lambda: GaussianRational(1, 1) / 0,
        lambda: GaussianRational(Fraction(1, 3)) / GaussianRational(Fraction(0, 5)),
    ):
        with pytest.raises(ZeroDivisionError):
            attempt()


def test_constants_and_parts():
    assert (ZERO, ONE, I, MINUS_I) == (0, 1, GaussianRational(0, 1), -I)
    assert I * I == -1 and I * MINUS_I == ONE
    z = GaussianRational(Fraction(-6, 4), Fraction(5, 3))
    assert (z.re, z.im) == (Fraction(-3, 2), Fraction(5, 3))
    assert repr(z) == "GaussianRational(Fraction(-3, 2), Fraction(5, 3))"


# -- printing is unchanged: the formatter used with Fraction components -------


def _fraction_imag_str(b):
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{b}*i"


def _fraction_scalar_str(re, im):
    if im == 0:
        return str(re)
    if re == 0:
        return _fraction_imag_str(im)
    if im < 0:
        return f"{re}-{_fraction_imag_str(-im)}"
    return f"{re}+{_fraction_imag_str(im)}"


def _fraction_poly_str(ring, terms):
    """poly_str of {exps: (re, im)} as printed from Fraction components."""
    if not terms:
        return "0"
    chunks = []
    for position, exps in enumerate(sorted(terms, key=grevlex_key, reverse=True)):
        coeff = GaussianRational(*terms[exps])
        negative, body = fraction_term_str(exps, coeff, ring.variables)
        if position == 0:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks)


@given(rationals, rationals)
def test_scalar_str_matches_fraction_formatter(re, im):
    assert scalar_str(GaussianRational(re, im)) == _fraction_scalar_str(re, im)


@given(
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(rationals, rationals).filter(lambda p: p != (0, 0)),
        max_size=6,
    )
)
def test_poly_str_matches_fraction_formatter(terms):
    ring = PolyRing(["x", "y"])
    p = ring.from_terms({e: GaussianRational(*pair) for e, pair in terms.items()})
    assert poly_str(p) == _fraction_poly_str(ring, terms)


# -- no Fraction in the exact kernels -----------------------------------------


def test_hom_cohomology_builds_no_fraction():
    """Every Hom space of the two baseline branes on x^4+y^4 is computed
    without building a single Fraction."""
    lg = make_lg_pair(["x", "y"], "x^4+y^4")
    branes = [
        koszul_factorization(lg, [("x", "x^3"), ("y", "y^3")]),
        koszul_factorization(lg, [("x^2", "x^2"), ("y", "y^3")]),
    ]
    built = []
    original = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        dims = [hom_cohomology(a, b).total_dim for a in branes for b in branes]
    finally:
        Fraction.__new__ = original
    assert dims == [4, 4, 4, 8]
    assert built == []
