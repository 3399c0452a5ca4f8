"""Buchberger's algorithm and normal forms in the grevlex order.

The basis returned by GroebnerBasis.compute is reduced and monic, and the
Buchberger criterion (every S-polynomial reduces to zero) is re-checked after
construction, so downstream code can rely on normal forms being canonical.
"""

from __future__ import annotations

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
    mono_mul,
)


def normal_form(p: Polynomial, divisors: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of p by the divisor list."""
    leads = [g.leading_term() for g in divisors]
    remainder = p.ring.zero()
    work = p
    while not work.is_zero():
        exps, coeff = work.leading_term()
        reduced = False
        for g, (g_exps, g_coeff) in zip(divisors, leads):
            quotient_exps = mono_div(exps, g_exps)
            if quotient_exps is not None:
                factor = g.ring.monomial(quotient_exps, coeff / g_coeff)
                work = work - factor * g
                reduced = True
                break
        if not reduced:
            term = p.ring.monomial(exps, coeff)
            remainder = remainder + term
            work = work - term
    return remainder


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
    pairs = {(i, j) for i in range(len(basis)) for j in range(i)}
    while pairs:
        # normal selection: smallest lcm of leading monomials in grevlex
        def pair_key(pair):
            i, j = pair
            lcm = mono_lcm(
                basis[i].leading_term()[0], basis[j].leading_term()[0]
            )
            return (grevlex_key(lcm), pair)

        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        lt_i = basis[i].leading_term()[0]
        lt_j = basis[j].leading_term()[0]
        if mono_mul(lt_i, lt_j) == mono_lcm(lt_i, lt_j):
            continue  # coprime leading terms: S-polynomial reduces to zero
        remainder = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if remainder.is_zero():
            continue
        basis.append(remainder.monic())
        new = len(basis) - 1
        pairs.update((new, k) for k in range(new))
    return _interreduce(basis)


class GroebnerBasis:
    """A reduced grevlex Groebner basis with normal-form services."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: PolyRing, generators: Sequence[Polynomial]):
        self.ring = ring
        self.generators = tuple(generators)

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
        """Raise InternalCheckError unless the basis is monic, reduced and Groebner."""
        gens = self.generators
        for k, g in enumerate(gens):
            if g.leading_term()[1] != 1:
                raise InternalCheckError("basis element not monic")
            others = gens[:k] + gens[k + 1 :]
            if others and normal_form(g, others) != g:
                raise InternalCheckError("basis not reduced")
        for i in range(len(gens)):
            for j in range(i):
                s = s_polynomial(gens[i], gens[j])
                if not normal_form(s, gens).is_zero():
                    raise InternalCheckError("Buchberger criterion failed")

    def normal_form(self, p: Polynomial) -> Polynomial:
        if p.ring != self.ring:
            raise RingMismatchError("polynomial not in the basis ring")
        if not self.generators:
            return p
        return normal_form(p, self.generators)

    def contains(self, p: Polynomial) -> bool:
        return self.normal_form(p).is_zero()

    def leading_exponents(self) -> list:
        return [g.leading_term()[0] for g in self.generators]

    # -- staircase combinatorics ------------------------------------------

    def is_zero_dimensional(self) -> bool:
        """True when the quotient by the ideal is finite-dimensional.

        Standard criterion: for each variable some leading monomial is a pure
        power of that variable (the zero exponent covers the unit ideal).
        """
        leads = self.leading_exponents()
        if any(mono_degree(e) == 0 for e in leads):
            return True
        nvars = self.ring.nvars
        for k in range(nvars):
            if not any(
                e[k] > 0 and all(e[j] == 0 for j in range(nvars) if j != k)
                for e in leads
            ):
                return False
        return True

    def staircase_bounds(self) -> Optional[list]:
        """Per-variable exclusive bounds on standard-monomial exponents."""
        if not self.is_zero_dimensional():
            return None
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
