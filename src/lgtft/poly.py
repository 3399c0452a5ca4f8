"""Sparse multivariate polynomials over the Gaussian rationals.

Terms are stored as a map from exponent tuples to nonzero coefficients.  The
canonical term order is graded reverse lexicographic (grevlex) with respect to
the ring's variable order; every printed polynomial lists its terms in
descending grevlex order, which makes text output deterministic and
reparseable.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .errors import ParseError, RingMismatchError
from .scalars import I, ONE, GaussianRational, _ratio_str, scalar_str

# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)
# ---------------------------------------------------------------------------


def grevlex_key(exps: tuple) -> tuple:
    """Sort key: ascending order of this key is ascending grevlex order."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_div(a: tuple, b: tuple):
    """Exponent vector of x^a / x^b, or None when not divisible."""
    out = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in out):
        return None
    return out


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(exps: tuple) -> int:
    return sum(exps)


def mono_weighted_degree(exps: tuple, weights: Sequence[int]) -> int:
    return sum(e * w for e, w in zip(exps, weights))


# ---------------------------------------------------------------------------
# ring and elements
# ---------------------------------------------------------------------------


class PolyRing:
    """Polynomial ring over Q(i) in named, ordered variables."""

    __slots__ = ("variables",)

    def __init__(self, variables: Sequence[str]):
        names = tuple(variables)
        if not names:
            raise ValueError("a polynomial ring needs at least one variable")
        seen = set()
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"invalid variable name {name!r}")
            if name == "i":
                raise ValueError("'i' is the imaginary unit and cannot be a variable")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)
        self.variables = names

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"PolyRing({', '.join(self.variables)})"

    # -- constructors -------------------------------------------------------

    def from_terms(self, terms: dict) -> "Polynomial":
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps!r}")
            coeff = GaussianRational.coerce(coeff)
            if coeff:
                acc = clean.get(exps)
                coeff = coeff if acc is None else acc + coeff
                if coeff:
                    clean[exps] = coeff
                elif exps in clean:
                    del clean[exps]
        return Polynomial(self, clean)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, value) -> "Polynomial":
        coeff = GaussianRational.coerce(value)
        if not coeff:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: coeff})

    def var(self, index: int) -> "Polynomial":
        exps = tuple(1 if k == index else 0 for k in range(self.nvars))
        return Polynomial(self, {exps: GaussianRational(1)})

    def gens(self) -> tuple:
        return tuple(self.var(k) for k in range(self.nvars))

    def monomial(self, exps: tuple, coeff=1) -> "Polynomial":
        return self.from_terms({tuple(exps): coeff})

    def parse(self, src: str) -> "Polynomial":
        return _Parser(src, self).parse()


class Polynomial:
    """Immutable sparse polynomial attached to a PolyRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms  # exponent tuple -> nonzero GaussianRational

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(mono_degree(e) == 0 for e in self.terms)

    def coefficient(self, exps: tuple) -> GaussianRational:
        return self.terms.get(tuple(exps), GaussianRational(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(e) for e in self.terms)

    def weighted_degree(self, weights: Sequence[int]) -> int:
        if not self.terms:
            return -1
        return max(mono_weighted_degree(e, weights) for e in self.terms)

    def homogeneous_weighted_degree(self, weights: Sequence[int]):
        """The common weighted degree of all terms, or None if mixed/zero."""
        degrees = {mono_weighted_degree(e, weights) for e in self.terms}
        if len(degrees) != 1:
            return None
        return degrees.pop()

    def leading_term(self):
        """(exponent tuple, coefficient) of the grevlex-largest term."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self.terms, key=grevlex_key)
        return exps, self.terms[exps]

    def sorted_terms(self, reverse: bool = True):
        for exps in sorted(self.terms, key=grevlex_key, reverse=reverse):
            yield exps, self.terms[exps]

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands live in {self.ring!r} and {other.ring!r}"
            )

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            self._check_ring(other)
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.ring.constant(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = terms.get(exps)
            total = coeff if acc is None else acc + coeff
            if total:
                terms[exps] = total
            elif exps in terms:
                del terms[exps]
        return Polynomial(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            scale = GaussianRational.coerce(other)
            if not scale:
                return self.ring.zero()
            return Polynomial(
                self.ring, {e: c * scale for e, c in self.terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        terms: dict = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = mono_mul(ea, eb)
                prod = ca * cb
                acc = terms.get(exps)
                total = prod if acc is None else acc + prod
                if total:
                    terms[exps] = total
                elif exps in terms:
                    del terms[exps]
        return Polynomial(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        _, lead = self.leading_term()
        return self * lead.inverse()

    # -- calculus and evaluation ----------------------------------------------

    def partial_derivative(self, index: int) -> "Polynomial":
        """Formal partial derivative with respect to the index-th variable."""
        if not 0 <= index < self.ring.nvars:
            raise IndexError(
                f"variable index {index} out of range for {self.ring!r}"
            )
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = tuple(
                x - 1 if k == index else x for k, x in enumerate(exps)
            )
            value = coeff * e
            acc = terms.get(lowered)
            total = value if acc is None else acc + value
            if total:
                terms[lowered] = total
            elif lowered in terms:
                del terms[lowered]
        return Polynomial(self.ring, terms)

    def evaluate(self, point: Sequence) -> GaussianRational:
        if len(point) != self.ring.nvars:
            raise ValueError(
                f"expected {self.ring.nvars} coordinates, got {len(point)}"
            )
        values = [GaussianRational.coerce(p) for p in point]
        total = GaussianRational(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, exps):
                if e:
                    term = term * value**e
            total = total + term
        return total

    # -- equality and printing ---------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"<{poly_str(self)}>"


# ---------------------------------------------------------------------------
# canonical printing
# ---------------------------------------------------------------------------


def _mono_str(exps: tuple, variables: tuple) -> str:
    parts = []
    for name, e in zip(variables, exps):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _term_str(exps, coeff, variables):
    """(is_negative, body) for one term; the joiner absorbs the sign.  The
    coefficient is printed from its integer triple (a + b*i)/d."""
    mono = _mono_str(exps, variables)
    a, b, d = coeff.triple()
    if not b:
        negative, mag = a < 0, abs(a)
        if not mono:
            return negative, _ratio_str(mag, d)
        if mag == d:
            return negative, mono
        return negative, f"{_ratio_str(mag, d)}*{mono}"
    if not a:
        negative, mag = b < 0, abs(b)
        body = "i" if mag == d else f"{_ratio_str(mag, d)}*i"
        return negative, body if not mono else f"{body}*{mono}"
    # mixed coefficients are printed verbatim inside parentheses
    body = f"({scalar_str(coeff)})"
    return False, body if not mono else f"{body}*{mono}"


def poly_str(p: Polynomial) -> str:
    """Canonical text form, terms in descending grevlex order."""
    if p.is_zero():
        return "0"
    chunks = []
    for position, (exps, coeff) in enumerate(p.sorted_terms()):
        negative, body = _term_str(exps, coeff, p.ring.variables)
        if position == 0:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_MINUS_CHARS = {"-", "−"}  # ASCII hyphen and the typographic minus
_DIGITS = frozenset("0123456789")  # str.isdigit also takes "²" and "٣"


def _digit_run(src: str, start: int) -> tuple:
    """(end, value) of the digit run at start; ParseError past int()'s limit."""
    end = start
    while end < len(src) and src[end] in _DIGITS:
        end += 1
    try:
        return end, int(src[start:end])
    except ValueError:
        raise ParseError(f"a {end - start}-digit literal is too long", start) from None


def _tokenize(src: str) -> list:
    """(kind, value, position) per token, closed by ("end", None, len(src)).

    A number's value is an int for a digit literal and a Fraction for p/q;
    only the first can be an exponent.
    """
    tokens = []
    k, n = 0, len(src)
    while k < n:
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _DIGITS:
            start = k
            k, value = _digit_run(src, k)
            if k < n and src[k] == "/":
                j = k + 1
                if not (j < n and src[j] in _DIGITS):
                    raise ParseError("expected digits after '/'", j)
                k, denominator = _digit_run(src, j)
                if denominator == 0:
                    raise ParseError("zero denominator", start)
                value = Fraction(value, denominator)
            tokens.append(("number", value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = k
            while k < n and (src[k].isalnum() or src[k] == "_"):
                k += 1
            tokens.append(("name", src[start:k], start))
            continue
        if ch in _MINUS_CHARS:
            tokens.append(("-", "-", k))
        elif ch in "+*^()":
            tokens.append((ch, ch, k))
        else:
            raise ParseError(f"unexpected character {ch!r}", k)
        k += 1
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Recursive-descent parser for the +, -, *, ^ grammar with i.

    Every rule returns a terms dict, exponent tuple -> nonzero
    GaussianRational, with its terms in the order Polynomial arithmetic
    would insert them.  A power of one term multiplies its exponents, and a
    product with a one-term factor scales the other factor's terms, so only
    products and powers of sums run Polynomial arithmetic.
    """

    def __init__(self, src: str, ring: PolyRing):
        self.ring = ring
        self.tokens = _tokenize(src)
        self.pos = 0
        self.origin = (0,) * ring.nvars

    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def parse(self) -> Polynomial:
        terms = self.expression()
        kind, _, position = self.tokens[self.pos]
        if kind != "end":
            raise ParseError("unexpected trailing input", position)
        return Polynomial(self.ring, terms)

    def expression(self) -> dict:
        sign = self.kind()
        if sign in ("+", "-"):
            self.pos += 1
        terms = self.term()
        if sign == "-":
            terms = _negated(terms)
        while (sign := self.kind()) in ("+", "-"):
            self.pos += 1
            for exps, coeff in self.term().items():
                if sign == "-":
                    coeff = -coeff
                acc = terms.get(exps)
                total = coeff if acc is None else acc + coeff
                if total:
                    terms[exps] = total
                elif exps in terms:
                    del terms[exps]
        return terms

    def term(self) -> dict:
        terms = self.factor()
        while self.kind() == "*":
            self.pos += 1
            rhs = self.factor()
            if len(terms) == 1:
                [(e0, c0)] = terms.items()
                terms = {mono_mul(e0, e): c0 * c for e, c in rhs.items()}
            elif len(rhs) == 1:
                [(e0, c0)] = rhs.items()
                terms = {mono_mul(e, e0): c * c0 for e, c in terms.items()}
            else:
                terms = (
                    Polynomial(self.ring, terms) * Polynomial(self.ring, rhs)
                ).terms
        return terms

    def factor(self) -> dict:
        terms = self.atom()
        if self.kind() != "^":
            return terms
        self.pos += 1
        kind, value, position = self.tokens[self.pos]
        if kind == "-":
            raise ParseError("negative exponent", position)
        if kind != "number":
            raise ParseError("expected exponent", position)
        if type(value) is not int:
            raise ParseError("exponent must be an integer", position)
        self.pos += 1
        if len(terms) == 1:
            [(exps, coeff)] = terms.items()
            return {tuple(e * value for e in exps): coeff**value}
        return (Polynomial(self.ring, terms) ** value).terms

    def atom(self) -> dict:
        kind, value, position = self.tokens[self.pos]
        self.pos += 1
        if kind == "number":
            return {self.origin: GaussianRational(value)} if value else {}
        if kind == "name":
            if value == "i":
                return {self.origin: I}
            try:
                index = self.ring.variables.index(value)
            except ValueError:
                raise ParseError(
                    f"undeclared variable {value!r}", position
                ) from None
            origin = self.origin
            return {origin[:index] + (1,) + origin[index + 1:]: ONE}
        if kind == "(":
            terms = self.expression()
            kind, _, position = self.tokens[self.pos]
            if kind != ")":
                raise ParseError("expected ')'", position)
            self.pos += 1
            return terms
        if kind in ("+", "-"):
            terms = self.factor()
            return _negated(terms) if kind == "-" else terms
        raise ParseError("expected a term", position)


def _negated(terms: dict) -> dict:
    return {exps: -coeff for exps, coeff in terms.items()}


def parse_polynomial(src: str, variables: Sequence[str]) -> Polynomial:
    """Parse src in the ring with the given variables."""
    return PolyRing(variables).parse(src)


def monomials_of_weighted_degree(
    weights: Sequence[int], degree: int
) -> Iterable[tuple]:
    """All exponent tuples with the given weighted degree, grevlex-ascending;
    a stack of (prefix, remaining degree) fixes one exponent at a time."""
    if degree < 0:
        return []
    if not weights:
        return [()] if degree == 0 else []
    last = len(weights) - 1
    found = []
    stack = [((), degree)]
    while stack:
        prefix, remaining = stack.pop()
        w = weights[len(prefix)]
        if len(prefix) == last:
            if remaining % w == 0:
                found.append(prefix + (remaining // w,))
            continue
        for e in range(remaining // w + 1):
            stack.append((prefix + (e,), remaining - e * w))
    found.sort(key=grevlex_key)
    return found
