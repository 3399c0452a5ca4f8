"""Buchberger's algorithm and normal forms in the grevlex order.

The basis returned by GroebnerBasis.compute is reduced and monic, and the
Buchberger criterion (every S-polynomial reduces to zero) is re-checked after
construction, so downstream code can rely on normal forms being canonical.
Both the algorithm and the check reduce only the S-polynomials of pairs whose
leading monomials share a variable: by Buchberger's first criterion the
S-polynomial of a pair with coprime leading monomials always reduces to zero
(Buchberger, EUROSAM 1979; Cox, Little and O'Shea, Ideals, Varieties, and
Algorithms, ch. 2, "Improvements on Buchberger's algorithm"), so for those
pairs the criterion holds with no division.
"""

from __future__ import annotations

import heapq
from operator import add, sub
from typing import Optional, Sequence

from .errors import InternalCheckError, RingMismatchError
from .poly import (
    PolyRing,
    Polynomial,
    grevlex_key,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
)


def normal_form(p: Polynomial, divisors: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of p by the divisor list.

    The division runs in place on one dict of working terms, with a heap of
    their monomials keyed (-degree, reversed exponents, exponents), so the
    smallest key is the grevlex-largest monomial (Monagan and Pearce, CASC
    2007).  Each step pops the largest monomial still in the working dict (a
    popped key whose term has cancelled is skipped) and reduces it by the
    first divisor in list order whose leading monomial divides it: it
    adds -coeff / lc(g) * x^q * tail(g) term by term and pushes only the
    monomials new to the dict.  The leading terms cancel exactly and are
    dropped.  A term no divisor's leading monomial divides moves to the
    remainder.

    This is the textbook division algorithm (Cox, Little and O'Shea, Ideals,
    Varieties, and Algorithms, ch. 2 sec. 3) step for step: the same largest
    term meets the same first divisor with the same exact coefficients, so
    the remainder is the same polynomial, with its terms in the same
    descending order, also for divisor lists that are not Groebner bases,
    where the remainder depends on the order of the list.  Only the cost
    changes: a reduction costs the length of the divisor's tail, not of the
    whole working polynomial.
    """
    return _divide(p, _reducers(divisors))


def _reducers(divisors: Sequence[Polynomial]) -> list:
    """(leading monomial, inverse leading coefficient, tail terms) of each
    divisor, in list order: what a division step reads of a divisor."""
    reducers = []
    for g in divisors:
        lead, lead_coeff = g.leading_term()
        tail = [(e, c) for e, c in g.terms.items() if e != lead]
        reducers.append((lead, lead_coeff.inverse(), tail))
    return reducers


def _divide(p: Polynomial, reducers: list) -> Polynomial:
    """The division loop of normal_form, by divisors read by _reducers."""
    work = dict(p.terms)
    heap = [(-sum(e), e[::-1], e) for e in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        exps = heapq.heappop(heap)[2]
        coeff = work.pop(exps, None)
        if coeff is None:
            continue  # cancelled after it was pushed
        for lead, inverse, tail in reducers:
            quotient = tuple(map(sub, exps, lead))
            if min(quotient) < 0:
                continue
            factor = -(coeff * inverse)
            for t_exps, t_coeff in tail:
                exps_q = tuple(map(add, quotient, t_exps))
                acc = work.get(exps_q)
                if acc is None:
                    work[exps_q] = factor * t_coeff
                    heapq.heappush(heap, (-sum(exps_q), exps_q[::-1], exps_q))
                else:
                    total = acc + factor * t_coeff
                    if total:
                        work[exps_q] = total
                    else:
                        del work[exps_q]
            break
        else:
            remainder[exps] = coeff
    return Polynomial(p.ring, remainder)


def _coprime(a: tuple, b: tuple) -> bool:
    """True when the monomials x^a and x^b share no variable."""
    return not any(map(min, a, b))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    f_exps, f_coeff = f.leading_term()
    g_exps, g_coeff = g.leading_term()
    lcm = mono_lcm(f_exps, g_exps)
    left = f.ring.monomial(mono_div(lcm, f_exps), f_coeff.inverse())
    right = f.ring.monomial(mono_div(lcm, g_exps), g_coeff.inverse())
    return left * f - right * g


def _interreduce(basis: list) -> list:
    """Make the basis reduced: no term of any element divisible by another's LT."""
    changed = True
    current = [g.monic() for g in basis if not g.is_zero()]
    while changed:
        changed = False
        for k in range(len(current)):
            others = current[:k] + current[k + 1 :]
            if not others:
                continue
            reduced = normal_form(current[k], others)
            if reduced.is_zero():
                current.pop(k)
                changed = True
                break
            reduced = reduced.monic()
            if reduced != current[k]:
                current[k] = reduced
                changed = True
                break
    current.sort(key=lambda g: grevlex_key(g.leading_term()[0]))
    return current


def buchberger(generators: Sequence[Polynomial]) -> list:
    """Reduced monic Groebner basis of the ideal spanned by the generators."""
    basis = [g.monic() for g in generators if not g.is_zero()]
    if not basis:
        return []
    leads = [g.leading_term()[0] for g in basis]  # kept beside basis
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    def pair_key(pair):
        # normal selection: smallest lcm of leading monomials in grevlex
        i, j = pair
        return (grevlex_key(mono_lcm(leads[i], leads[j])), pair)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        if _coprime(leads[i], leads[j]):
            continue  # the first criterion: S-polynomial reduces to zero
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if remainder.is_zero():
            continue
        basis.append(remainder.monic())
        leads.append(basis[-1].leading_term()[0])
        new = len(basis) - 1
        pairs.update((new, k) for k in range(new))
    return _interreduce(basis)


class GroebnerBasis:
    """A reduced grevlex Groebner basis with normal-form services.

    The generators' reducers (see _reducers) are built on the first
    normal_form and kept, so later normal forms take no leading term.
    """

    __slots__ = ("ring", "generators", "_reducers")

    def __init__(self, ring: PolyRing, generators: Sequence[Polynomial]):
        self.ring = ring
        self.generators = tuple(generators)
        self._reducers = None

    @classmethod
    def compute(cls, generators: Sequence[Polynomial]) -> "GroebnerBasis":
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            raise ValueError("cannot build a Groebner basis from the zero ideal only")
        ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generators live in different rings")
        basis = cls(ring, buchberger(gens))
        basis.verify()
        return basis

    def verify(self):
        """Raise InternalCheckError unless the basis is monic, reduced and Groebner.

        Groebner is Buchberger's criterion: the S-polynomial of every pair
        reduces to zero.  A pair whose leading monomials are coprime
        satisfies it by the first criterion (see the module docstring), so
        only the pairs whose leading monomials share a variable are reduced.
        """
        gens = self.generators
        leads = []
        for k, g in enumerate(gens):
            lead, lead_coeff = g.leading_term()
            if lead_coeff != 1:
                raise InternalCheckError("basis element not monic")
            others = gens[:k] + gens[k + 1 :]
            if others and normal_form(g, others) != g:
                raise InternalCheckError("basis not reduced")
            leads.append(lead)
        for i in range(len(gens)):
            for j in range(i):
                if _coprime(leads[i], leads[j]):
                    continue
                s = s_polynomial(gens[i], gens[j])
                if not normal_form(s, gens).is_zero():
                    raise InternalCheckError("Buchberger criterion failed")

    def normal_form(self, p: Polynomial) -> Polynomial:
        if p.ring != self.ring:
            raise RingMismatchError("polynomial not in the basis ring")
        if not self.generators:
            return p
        if self._reducers is None:
            self._reducers = _reducers(self.generators)
        return _divide(p, self._reducers)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def leading_exponents(self) -> list:
        return [g.leading_term()[0] for g in self.generators]

    # -- staircase combinatorics ------------------------------------------

    def is_zero_dimensional(self) -> bool:
        """True when the quotient by the ideal is finite-dimensional."""
        return self.staircase_bounds() is not None

    def staircase_bounds(self) -> Optional[list]:
        """Per-variable exclusive bounds on standard-monomial exponents, or
        None when the quotient is infinite-dimensional.

        Standard criterion: for each variable some leading monomial is a pure
        power of that variable, and the least such power bounds it; a zero
        leading exponent (the unit ideal) bounds every variable by 0.
        """
        leads = self.leading_exponents()
        if any(mono_degree(e) == 0 for e in leads):
            return [0] * self.ring.nvars
        bounds = []
        nvars = self.ring.nvars
        for k in range(nvars):
            pure = [
                e[k]
                for e in leads
                if e[k] > 0 and all(e[j] == 0 for j in range(nvars) if j != k)
            ]
            if not pure:
                return None
            bounds.append(min(pure))
        return bounds

    def standard_monomials(self) -> list:
        """Grevlex-ascending exponent tuples spanning the quotient."""
        bounds = self.staircase_bounds()
        if bounds is None:
            raise ValueError("the quotient is not finite-dimensional")
        leads = self.leading_exponents()
        found = []

        def rec(index, prefix):
            if index == len(bounds):
                exps = tuple(prefix)
                if not any(mono_divides(lt, exps) for lt in leads):
                    found.append(exps)
                return
            for e in range(bounds[index]):
                rec(index + 1, prefix + [e])

        rec(0, [])
        found.sort(key=grevlex_key)
        return found
