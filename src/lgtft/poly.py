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
from .scalars import GaussianRational, scalar_str

# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)
# ---------------------------------------------------------------------------


def grevlex_key(exps: tuple) -> tuple:
    """Sort key: ascending order of this key is ascending grevlex order."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


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
    """(is_negative, body) for one term; the joiner absorbs the sign."""
    mono = _mono_str(exps, variables)
    re, im = coeff.re, coeff.im
    if im == 0:
        negative, mag = re < 0, abs(re)
        if not mono:
            return negative, str(mag)
        if mag == 1:
            return negative, mono
        return negative, f"{mag}*{mono}"
    if re == 0:
        negative, mag = im < 0, abs(im)
        body = "i" if mag == 1 else f"{mag}*i"
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


class _Token:
    __slots__ = ("kind", "value", "position")

    def __init__(self, kind, value, position):
        self.kind = kind
        self.value = value
        self.position = position


def _tokenize(src: str):
    tokens = []
    k, n = 0, len(src)
    while k < n:
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            start = k
            while k < n and src[k].isdigit():
                k += 1
            numerator = int(src[start:k])
            if k < n and src[k] == "/":
                j = k + 1
                if j < n and src[j].isdigit():
                    k = j
                    while k < n and src[k].isdigit():
                        k += 1
                    denominator = int(src[j:k])
                    if denominator == 0:
                        raise ParseError("zero denominator", start)
                    tokens.append(
                        _Token("number", Fraction(numerator, denominator), start)
                    )
                    continue
                raise ParseError("expected digits after '/'", j)
            tokens.append(_Token("number", Fraction(numerator), start))
            continue
        if ch.isalpha() or ch == "_":
            start = k
            while k < n and (src[k].isalnum() or src[k] == "_"):
                k += 1
            tokens.append(_Token("name", src[start:k], start))
            continue
        if ch in _MINUS_CHARS:
            tokens.append(_Token("-", "-", k))
            k += 1
            continue
        if ch in "+*^()":
            tokens.append(_Token(ch, ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    """Recursive-descent parser for the +, -, *, ^ grammar with i."""

    def __init__(self, src: str, ring: PolyRing):
        self.src = src
        self.ring = ring
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(f"expected {kind!r}", token.position)
        return self.advance()

    def parse(self) -> Polynomial:
        value = self.expression()
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError("unexpected trailing input", tail.position)
        return value

    def expression(self) -> Polynomial:
        token = self.peek()
        negate = False
        if token.kind in ("+", "-"):
            self.advance()
            negate = token.kind == "-"
        value = self.term()
        if negate:
            value = -value
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            value = value - rhs if op.kind == "-" else value + rhs
        return value

    def term(self) -> Polynomial:
        value = self.factor()
        while self.peek().kind == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> Polynomial:
        base = self.atom()
        if self.peek().kind == "^":
            caret = self.advance()
            token = self.peek()
            if token.kind == "-":
                raise ParseError("negative exponent", token.position)
            if token.kind != "number":
                raise ParseError("expected exponent", token.position)
            self.advance()
            if token.value.denominator != 1:
                raise ParseError("exponent must be an integer", token.position)
            return base ** int(token.value)
        return base

    def atom(self) -> Polynomial:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return self.ring.constant(token.value)
        if token.kind == "name":
            self.advance()
            if token.value == "i":
                return self.ring.constant(GaussianRational(0, 1))
            try:
                index = self.ring.variables.index(token.value)
            except ValueError:
                raise ParseError(
                    f"undeclared variable {token.value!r}", token.position
                ) from None
            return self.ring.var(index)
        if token.kind == "(":
            self.advance()
            value = self.expression()
            self.expect(")")
            return value
        if token.kind in ("+", "-"):
            self.advance()
            value = self.factor()
            return -value if token.kind == "-" else value
        raise ParseError("expected a term", token.position)


def parse_polynomial(src: str, variables: Sequence[str]) -> Polynomial:
    """Parse src in the ring with the given variables."""
    return PolyRing(variables).parse(src)


def monomials_of_weighted_degree(
    weights: Sequence[int], degree: int
) -> Iterable[tuple]:
    """All exponent tuples with the given weighted degree, grevlex-ascending."""
    if degree < 0:
        return []
    found = []

    def rec(index, remaining, prefix):
        if index == len(weights) - 1:
            w = weights[index]
            if remaining % w == 0:
                found.append(tuple(prefix + [remaining // w]))
            return
        w = weights[index]
        for e in range(remaining // w + 1):
            rec(index + 1, remaining - e * w, prefix + [e])

    if not weights:
        return [()] if degree == 0 else []
    rec(0, degree, [])
    found.sort(key=grevlex_key)
    return found
