"""Parser, printer, and ring laws for sparse polynomials."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lgtft.errors import ParseError, RingMismatchError
from lgtft.poly import (
    PolyRing,
    Polynomial,
    _term_str,
    grevlex_key,
    monomials_of_weighted_degree,
    parse_polynomial,
)
from lgtft.scalars import GaussianRational
from oracles import arithmetic_parse, fraction_term_str
from test_bench_references import _load_harness


@pytest.fixture
def rxy():
    return PolyRing(["x", "y"])


def test_parse_two_terms():
    p = parse_polynomial("x^3 + y^3", ["x", "y"])
    assert len(p.terms) == 2
    assert p.coefficient((3, 0)) == GaussianRational(1)
    assert p.coefficient((0, 3)) == GaussianRational(1)


def test_parse_zero():
    p = parse_polynomial("0", ["x"])
    assert p.is_zero()
    assert p.terms == {}


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^", ["x"])
    assert err.value.position == 2


def test_undeclared_variable():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + z", ["x", "y"])
    assert "z" in str(err.value)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^-2", ["x"])
    assert "negative exponent" in str(err.value)


def test_rational_and_imaginary_literals(rxy):
    p = rxy.parse("1/2*x + 3*i*y - (1+2*i)")
    assert p.coefficient((1, 0)) == GaussianRational(Fraction(1, 2))
    assert p.coefficient((0, 1)) == GaussianRational(0, 3)
    assert p.coefficient((0, 0)) == GaussianRational(-1, -2)


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("1/0", ["x"])


@pytest.mark.parametrize("src", ["x^²", "٣*x", "x^٣", "1/٣*x"])
def test_only_ascii_digits_make_a_number(src):
    """str.isdigit takes "²" and "٣": x^² raised ValueError from int(), and
    ٣*x, x^٣ and 1/٣*x parsed as 3*x, x^3 and 1/3*x."""
    with pytest.raises(ParseError):
        parse_polynomial(src, ["x"])


def test_unicode_minus(rxy):
    assert rxy.parse("x − y") == rxy.parse("x - y")


def test_product_example(rxy):
    assert rxy.parse("(x+1)*(x-1)") == rxy.parse("x^2 - 1")


def test_additive_inverse_cancels(rxy):
    p = rxy.parse("2*x^2*y - y + 1/3")
    assert (p + (-1) * p).is_zero()


def test_evaluate_at_gaussian_point(rxy):
    p = rxy.parse("x^2 + y")
    value = p.evaluate([GaussianRational(1), GaussianRational(0, 1)])
    assert value == GaussianRational(1, 1)


def test_partial_derivatives():
    r = PolyRing(["x", "y"])
    x, y = r.gens()
    assert (x**3).partial_derivative(0) == 3 * x**2
    assert x.partial_derivative(1).is_zero()
    assert (x * y + x**2).partial_derivative(0) == y + 2 * x
    with pytest.raises(IndexError):
        x.partial_derivative(2)


def test_grevlex_printing_order(rxy):
    # descending grevlex: higher total degree first; x beats y inside a degree
    p = rxy.parse("y + x + x*y + x^2")
    assert str(p) == "x^2 + x*y + x + y"


def test_ring_mismatch():
    a = parse_polynomial("x", ["x"])
    b = parse_polynomial("y", ["y"])
    with pytest.raises(RingMismatchError):
        a + b


def test_variable_name_validation():
    with pytest.raises(ValueError):
        PolyRing(["i"])
    with pytest.raises(ValueError):
        PolyRing(["x", "x"])
    with pytest.raises(ValueError):
        PolyRing([])


coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
)
exponents = st.tuples(st.integers(0, 5), st.integers(0, 5))


@st.composite
def polynomials(draw):
    ring = PolyRing(["x", "y"])
    terms = draw(st.dictionaries(exponents, coeffs, max_size=6))
    return ring.from_terms(terms)


@given(polynomials(), polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polynomials())
@settings(max_examples=80, deadline=None)
def test_parse_print_roundtrip(p):
    assert p.ring.parse(str(p)) == p


def test_print_parse_idempotent(rxy):
    p = rxy.parse("(1+2*i)*x^2 - 1/2*y + i")
    assert str(rxy.parse(str(p))) == str(p)


def test_monomials_of_weighted_degree():
    found = monomials_of_weighted_degree((1, 2), 4)
    assert set(found) == {(4, 0), (2, 1), (0, 2)}
    assert found == sorted(found, key=grevlex_key)
    assert monomials_of_weighted_degree((1,), 0) == [(0,)]


# -- the parser against the Polynomial-arithmetic oracle ----------------------


def test_exponent_must_be_a_digit_literal():
    """A p/q literal after ^ is no exponent, also when q divides p (x^4/2
    once read as x^2, x^2/1 as x^2); the error points at the literal."""
    for src, offset in (("x^4/2", 2), ("x^2/1", 2), ("x^3/2", 2), ("y + x ^ 6/3", 8)):
        with pytest.raises(ParseError) as err:
            parse_polynomial(src, ["x", "y"])
        assert "exponent must be an integer" in str(err.value)
        assert err.value.position == offset


_SPACE = st.sampled_from(["", "", " ", "  ", "\t"])
_LEAVES = st.one_of(
    st.sampled_from(["x", "y", "i"]),
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 9), st.integers(1, 9)).map(lambda t: f"{t[0]}/{t[1]}"),
)


@st.composite
def _grammar_strings(draw, depth=3):
    """A string of the README grammar: sums, differences (ASCII and
    typographic minus), products, powers of atoms and of parenthesized
    expressions, unary signs, i, integer and p/q literals, whitespace."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(_LEAVES)
    shape = draw(st.sampled_from(["sum", "product", "power", "paren", "unary"]))
    if shape == "power":
        base = draw(st.one_of(
            _LEAVES, _grammar_strings(depth - 1).map(lambda s: f"({s})")))
        return f"{base}{draw(_SPACE)}^{draw(_SPACE)}{draw(st.integers(0, 3))}"
    inner = draw(_grammar_strings(depth - 1))
    if shape == "paren":
        return f"({draw(_SPACE)}{inner}{draw(_SPACE)})"
    if shape == "unary":
        return f"{draw(st.sampled_from(['-', '+', '−']))}{draw(_SPACE)}{inner}"
    other = draw(_grammar_strings(depth - 1))
    op = "*" if shape == "product" else draw(st.sampled_from(["+", "-", "−"]))
    return f"{inner}{draw(_SPACE)}{op}{draw(_SPACE)}{other}"


@given(_grammar_strings())
@settings(max_examples=300, deadline=None)
def test_parser_builds_the_oracle_terms(src):
    """Same terms, in the same insertion order, as the parser that evaluates
    every literal, product and power through Polynomial arithmetic."""
    ring = PolyRing(["x", "y"])
    assert list(ring.parse(src).terms.items()) == list(
        arithmetic_parse(src, ring).terms.items()
    )


_MALFORMED_TOKENS = st.sampled_from([
    "x", "y", "z", "i", "2", "07", "1/2", "4/2", "2/1", "1/0", "3/", "/",
    "+", "-", "−", "*", "^", "(", ")", " ", "$", ".",
])


@given(st.lists(_MALFORMED_TOKENS, max_size=12).map("".join))
@settings(max_examples=400, deadline=None)
def test_parser_errors_match_the_oracle(src):
    """Both parsers accept the same strings with the same terms, and reject
    the rest with the same message at the same offset.  The one difference
    allowed is a p/q exponent whose q divides p: the oracle reads it as an
    integer, the parser rejects it."""
    ring = PolyRing(["x", "y"])

    def outcome(parse):
        try:
            return list(parse().terms.items())
        except ParseError as exc:
            return (str(exc), exc.position)

    got = outcome(lambda: ring.parse(src))
    expected = outcome(lambda: arithmetic_parse(src, ring))
    if got != expected:
        message, position = got
        assert message.startswith("exponent must be an integer")
        numerator, denominator = re.match(r"(\d+)/(\d+)", src[position:]).groups()
        assert int(numerator) % int(denominator) == 0


def test_bench_template_strings_run_no_polynomial_arithmetic(monkeypatch):
    """Every polynomial string of the seven bench templates, as written and
    rescaled by each unit a seed may draw, parses to the oracle's terms
    without one Polynomial product or power."""
    harness = _load_harness(monkeypatch)
    variables_and_strings = []
    for raw in harness.TEMPLATES.values():
        strings = [raw["superpotential"]]
        for brane in raw.get("branes", []):
            for a, b in brane["pairs"]:
                for unit in harness.UNITS:
                    strings += harness._rescale(a, b, unit)
        variables_and_strings.append((raw["variables"], strings))
    calls = []
    for name in ("__mul__", "__pow__"):
        original = getattr(Polynomial, name)

        def counting(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Polynomial, name, counting)
    parsed = [
        (PolyRing(variables), src, PolyRing(variables).parse(src))
        for variables, strings in variables_and_strings
        for src in strings
    ]
    assert len(parsed) == 95 and calls == []
    monkeypatch.undo()
    for ring, src, p in parsed:
        assert p == arithmetic_parse(src, ring), src


# -- the term printer against the Fraction-part oracle ------------------------

_NUMERATORS = st.integers(-50, 50).filter(bool)
_REAL_PARTS = st.one_of(
    st.builds(Fraction, _NUMERATORS, st.integers(2, 12)),  # d != 1
    st.integers(-50, -1).map(Fraction),  # negative
    st.sampled_from([Fraction(1), Fraction(-1)]),
    st.builds(Fraction, _NUMERATORS, st.integers(1, 12)),
)
_TERM_COEFFS = st.one_of(
    _REAL_PARTS.map(GaussianRational),  # real
    _REAL_PARTS.map(lambda v: GaussianRational(0, v)),  # purely imaginary
    st.builds(GaussianRational, _REAL_PARTS, _REAL_PARTS),  # mixed
)


@given(st.tuples(st.integers(0, 3), st.integers(0, 3)), _TERM_COEFFS)
@settings(max_examples=300, deadline=None)
def test_term_str_matches_the_fraction_oracle(exps, coeff):
    variables = ("x", "y")
    assert _term_str(exps, coeff, variables) == fraction_term_str(exps, coeff, variables)
