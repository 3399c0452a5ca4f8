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

An element's leading term is read once.  Buchberger's algorithm keeps each
element's reducer (see _monic) beside it; interreduction and the check
divide by those, and the basis keeps them, with its leading monomials and
staircase bounds, for every later normal form and staircase query.
"""

from __future__ import annotations

import heapq
from operator import add, le, sub
from typing import Optional, Sequence

from .errors import InternalCheckError, RingMismatchError
from .poly import (
    PolyRing,
    Polynomial,
    grevlex_key,
    mono_div,
    mono_lcm,
)
from .scalars import ONE


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
    return Polynomial(p.ring, _divide(p.terms, _reducers(divisors)))


def _reducers(divisors: Sequence[Polynomial]) -> list:
    """What a division step reads of each divisor, in list order: see _monic."""
    return [_monic(g)[1] for g in divisors]


def _monic(g: Polynomial) -> tuple:
    """(g / lc(g), its reducer: leading monomial, inverse leading
    coefficient 1 and tail terms), reading g's leading term once."""
    lead, lead_coeff = g.leading_term()
    monic = g * lead_coeff.inverse()
    return monic, (lead, ONE, [(e, c) for e, c in monic.terms.items() if e != lead])


def _divide(terms: dict, reducers: list) -> dict:
    """The remainder's terms in the division loop of normal_form, of the
    terms of a polynomial by reducers (see _monic); the residue trace pads
    a basis's reducers into two variable groups."""
    work = dict(terms)
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
    return remainder


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


def _interreduce(basis: list, reducers: list) -> tuple:
    """Make the monic basis reduced: no term of any element divisible by
    another's LT.  reducers[k] is basis[k]'s; both lists are changed in
    place and returned sorted by leading monomial."""
    changed = True
    while changed:
        changed = False
        for k in range(len(basis)):
            others = reducers[:k] + reducers[k + 1 :]
            if not others:
                continue
            reduced = _divide(basis[k].terms, others)
            if not reduced:
                basis.pop(k)
                reducers.pop(k)
                changed = True
                break
            if reduced == basis[k].terms:
                continue  # already reduced, and monic
            monic, reducer = _monic(Polynomial(basis[k].ring, reduced))
            if monic != basis[k]:
                basis[k], reducers[k] = monic, reducer
                changed = True
                break
    order = sorted(range(len(basis)), key=lambda k: grevlex_key(reducers[k][0]))
    return [basis[k] for k in order], [reducers[k] for k in order]


def buchberger(generators: Sequence[Polynomial]) -> tuple:
    """(basis, reducers): the reduced monic Groebner basis of the ideal
    spanned by the generators, and the reducer of each element."""
    monics = [_monic(g) for g in generators if not g.is_zero()]
    if not monics:
        return [], []
    basis, reducers = map(list, zip(*monics))  # reducers kept beside basis
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}

    def pair_key(pair):
        # normal selection: smallest lcm of leading monomials in grevlex
        i, j = pair
        return (grevlex_key(mono_lcm(reducers[i][0], reducers[j][0])), pair)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        if _coprime(reducers[i][0], reducers[j][0]):
            continue  # the first criterion: S-polynomial reduces to zero
        remainder = _divide(s_polynomial(basis[i], basis[j]).terms, reducers)
        if not remainder:
            continue
        monic, reducer = _monic(Polynomial(basis[i].ring, remainder))
        basis.append(monic)
        reducers.append(reducer)
        new = len(basis) - 1
        pairs.update((new, k) for k in range(new))
    return _interreduce(basis, reducers)


def _staircase_bounds(leads: Sequence[tuple], nvars: int) -> Optional[list]:
    """Per-variable exclusive bounds on standard-monomial exponents, or None
    when the quotient is infinite-dimensional.  Standard criterion: for each
    variable some leading monomial is a pure power of that variable, and the
    least such power bounds it; a zero leading exponent (the unit ideal)
    bounds every variable by 0."""
    if any(not any(e) for e in leads):
        return [0] * nvars
    bounds = [
        min((e[k] for e in leads if e[k] and sum(e) == e[k]), default=None)
        for k in range(nvars)
    ]
    return None if None in bounds else bounds


class GroebnerBasis:
    """A reduced grevlex Groebner basis with normal-form services.  It keeps
    its generators' reducers (see _monic), which every normal form divides
    by, their leading monomials (leads) and the staircase bounds; compute
    passes it the reducers Buchberger's algorithm kept."""

    __slots__ = ("ring", "generators", "reducers", "leads", "_bounds")

    def __init__(self, ring: PolyRing, generators: Sequence, reducers=None):
        self.ring = ring
        self.generators = tuple(generators)
        if reducers is None:
            reducers = _reducers(self.generators)
        self.reducers = reducers
        self.leads = tuple(lead for lead, _, _ in reducers)
        self._bounds = _staircase_bounds(self.leads, ring.nvars)

    @classmethod
    def compute(cls, generators: Sequence[Polynomial]) -> "GroebnerBasis":
        gens = [g for g in generators if not g.is_zero()]
        if not gens:
            raise ValueError("cannot build a Groebner basis from the zero ideal only")
        ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("generators live in different rings")
        basis = cls(ring, *buchberger(gens))
        basis.verify()
        return basis

    def verify(self):
        """Raise InternalCheckError unless the basis is monic, reduced and Groebner.

        Groebner is Buchberger's criterion: the S-polynomial of every pair
        reduces to zero.  A pair whose leading monomials are coprime
        satisfies it by the first criterion (see the module docstring), so
        only the pairs whose leading monomials share a variable are reduced.
        Each element is read through its kept reducer.
        """
        gens = self.generators
        reducers = self.reducers
        for k, (g, (lead, _, _)) in enumerate(zip(gens, reducers)):
            if g.terms.get(lead) != 1:
                raise InternalCheckError("basis element not monic")
            others = reducers[:k] + reducers[k + 1 :]
            if others and _divide(g.terms, others) != g.terms:
                raise InternalCheckError("basis not reduced")
        leads = self.leads
        for i in range(len(gens)):
            for j in range(i):
                if _coprime(leads[i], leads[j]):
                    continue
                s = s_polynomial(gens[i], gens[j])
                if _divide(s.terms, reducers):
                    raise InternalCheckError("Buchberger criterion failed")

    def normal_form(self, p: Polynomial) -> Polynomial:
        if p.ring != self.ring:
            raise RingMismatchError("polynomial not in the basis ring")
        if not self.generators:
            return p
        return Polynomial(p.ring, _divide(p.terms, self.reducers))

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    # -- staircase combinatorics ------------------------------------------

    def is_zero_dimensional(self) -> bool:
        """True when the quotient by the ideal is finite-dimensional."""
        return self.staircase_bounds() is not None

    def staircase_bounds(self) -> Optional[list]:
        """The kept _staircase_bounds of the leading monomials."""
        return self._bounds

    def standard_monomials(self, limit: Optional[int] = None) -> Optional[list]:
        """Grevlex-ascending exponent tuples spanning the quotient; with a
        limit, None as soon as more than limit of them are found.

        Standard monomials are closed under division, so each one but 1 is
        x_k * m, m standard and x_k its last variable: the search raises
        each monomial found by each variable from its last one on, and keeps
        what no leading monomial divides, so it finds each once.  A leading
        monomial dividing x_k * m has x_k-exponent m_k + 1, as m is standard.
        """
        if not self.is_zero_dimensional():
            raise ValueError("the quotient is not finite-dimensional")
        nvars = self.ring.nvars
        steps = [{} for _ in range(nvars)]  # k -> {e: leads with x_k^e}
        for lead in self.leads:
            for k, e in enumerate(lead):
                if e:
                    steps[k].setdefault(e, []).append(lead)
        found = [] if any(not any(e) for e in self.leads) else [(0,) * nvars]
        lasts = [0]  # the last variable of each monomial found
        position = 0
        while position < len(found):
            exps, last = found[position], lasts[position]
            position += 1
            for k in range(last, nvars):
                e = exps[k] + 1
                raised = exps[:k] + (e,) + exps[k + 1 :]
                for lead in steps[k].get(e, ()):
                    if all(map(le, lead, raised)):
                        break
                else:
                    found.append(raised)
                    lasts.append(k)
            if limit is not None and len(found) > limit:
                return None
        found.sort(key=grevlex_key)
        return found
