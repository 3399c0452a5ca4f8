"""The Jacobi algebra O(C^d)/(dW), its dimension, and the residue trace.

QuotientAlgebra is R/I for any ideal I of finite colength: the Jacobi
algebra is one, and so is R/(c) of the Hom certificate.  Elements are sparse
coordinate vectors (linalg.Vector) on the standard monomials of the Groebner
basis.  On first read, the algebra builds M_k, the matrix of multiplication
by x_k, from n * mu normal forms of x_k * m_b (Cox, Little and O'Shea, Using
Algebraic Geometry, ch. 2 and 4), and the multiplication table from them
along the staircase: the row of m_a is the matrix L_a of multiplication by
m_a, with L_1 = I and L_{x_k m} = M_k L_m for the first variable x_k of
x_k m.  Normal forms are canonical, so every entry equals the normal form of
m_a * m_b.

The trace is the global Grothendieck residue functional, computed exactly by
the Bezoutian dual-basis construction: write the Bezoutian of the partials as
sum_{a,b} C[a][b] m_a(x) m_b(y) modulo the Jacobi ideal in both variable
groups; then C^{-1} is the Gram matrix of the residue pairing on the standard
monomial basis.  This normalization automatically satisfies
trace(det Hessian) = dim, which is checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    DegenerateTraceError,
    InternalCheckError,
    NonIsolatedCriticalLocusError,
    SingularMatrixError,
)
from .groebner import GroebnerBasis
from .linalg import SparseMatrix, Vector, columns_apply, vec_scale
from .poly import PolyRing, Polynomial
from .scalars import GaussianRational

if TYPE_CHECKING:  # lgpair imports this module: LGPair keeps its algebra
    from .lgpair import LGPair


def jacobi_groebner(lg: LGPair) -> GroebnerBasis:
    """Groebner basis of the ideal of partial derivatives of W, computed
    afresh; LGPair.jacobi_basis keeps one."""
    return GroebnerBasis.compute([p for p in lg.partials() if not p.is_zero()])


def is_critical_set_finite(lg: LGPair) -> bool:
    return lg.jacobi_basis.is_zero_dimensional()


class QuotientAlgebra:
    """R/I for a Groebner basis gb of an ideal I of finite colength.

    Elements are sparse coordinate vectors on the standard monomials, basis;
    index maps each to its position and unit_index is that of 1 (None for
    the zero algebra).  mult[k][b] is the coordinate vector of x_k * m_b, so
    mult[k] lists the columns of M_k, the matrix of multiplication by x_k.
    action(exps) lists the columns of L_e, multiplication by x^exps, built
    from the M_k by L_1 = I and L_{x_k m} = M_k L_m for the first variable
    x_k of x_k m, and kept.  table[a][b] is the coordinate vector of
    m_a * m_b: row a is action(basis[a]), along the staircase, as every
    divisor of a standard monomial is standard.  The M_k, the actions and
    the table are built on first read and kept.
    """

    __slots__ = (
        "ring", "gb", "basis", "index", "unit_index", "_mult", "_table", "_actions",
    )

    def __init__(self, gb: GroebnerBasis):
        self.ring = gb.ring
        self.gb = gb
        self.basis = tuple(gb.standard_monomials())
        self.index = {exps: k for k, exps in enumerate(self.basis)}
        self.unit_index = self.index.get((0,) * gb.ring.nvars)
        self._mult = None
        self._table = None
        self._actions = {}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def is_zero_algebra(self) -> bool:
        return not self.basis

    @property
    def mult(self) -> tuple:
        """The M_k, from n * mu normal forms on first read."""
        if self._mult is None:
            self._mult = tuple(
                tuple(
                    self.nf_coords(self.ring.monomial(raise_exponent(b, k)))
                    for b in self.basis
                )
                for k in range(self.ring.nvars)
            )
        return self._mult

    @property
    def table(self) -> tuple:
        """The multiplication table, built from the M_k on first read."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self):
        return tuple(self.action(a) for a in self.basis)

    def action(self, exps: tuple) -> tuple:
        """The columns of L_e, multiplication by x^exps, for any exponents."""
        found = self._actions.get(exps)
        if found is None:
            if not any(exps):
                found = tuple({b: GaussianRational(1)} for b in range(len(self.basis)))
            else:
                k = next(j for j, e in enumerate(exps) if e)  # first variable
                lower = self.action(exps[:k] + (exps[k] - 1,) + exps[k + 1 :])
                found = tuple(columns_apply(self.mult[k], v) for v in lower)
            self._actions[exps] = found
        return found

    def basis_poly(self, k: int) -> Polynomial:
        return self.ring.monomial(self.basis[k])

    def nf_coords(self, p: Polynomial) -> Vector:
        """Sparse coordinates of the normal form of p in the standard basis."""
        reduced = self.gb.normal_form(p)
        return {self.index[exps]: coeff for exps, coeff in reduced.terms.items()}


class JacobiAlgebra(QuotientAlgebra):
    """The Jacobi algebra R/(dW) on lg.jacobi_basis.  It keeps lg's ring,
    not lg: the LGPair keeps its algebra, and a reference back would make a
    cycle that reference counting cannot free.  Its M_k and table wait for
    their first read: only the tft clauses read them, so a job that prints
    the basis and the trace never pays their n * mu normal forms."""

    __slots__ = ()

    def __init__(self, lg: LGPair):
        super().__init__(lg.jacobi_basis)


def raise_exponent(exps: tuple, k: int) -> tuple:
    """The exponents of x_k * x^exps."""
    return exps[:k] + (exps[k] + 1,) + exps[k + 1 :]


def jacobi_algebra(lg: LGPair) -> JacobiAlgebra:
    """Quotient by the Jacobi ideal on lg.jacobi_basis; requires a finite
    critical set.  LGPair.jacobi_algebra keeps one."""
    if not lg.jacobi_basis.is_zero_dimensional():
        raise NonIsolatedCriticalLocusError(
            "the critical set of W is not finite; the quotient algebra is "
            "infinite-dimensional (run the Koszul cohomology tables for "
            "degreewise diagnostics instead)"
        )
    return JacobiAlgebra(lg)


def milnor_number(lg: LGPair) -> int:
    return lg.jacobi_algebra.dimension


def _det(ring: PolyRing, rows: list) -> Polynomial:
    """Determinant of a square list of polynomial rows, by cofactor expansion
    along the top row (fine at desk scale); a ring has a variable, so the
    list is not empty."""

    def expand(top, cols):
        if len(cols) == 1:
            return rows[top][cols[0]]
        total = ring.zero()
        for position, col in enumerate(cols):
            entry = rows[top][col]
            if entry.is_zero():
                continue
            term = entry * expand(top + 1, cols[:position] + cols[position + 1 :])
            total = total + term if position % 2 == 0 else total - term
        return total

    return expand(0, tuple(range(len(rows))))


def hessian_determinant(lg: LGPair) -> Polynomial:
    d = lg.dimension
    partials = lg.partials()
    rows = [
        [partials[i].partial_derivative(j) for j in range(d)] for i in range(d)
    ]
    return _det(lg.ring, rows)


# ---------------------------------------------------------------------------
# residue trace via the Bezoutian
# ---------------------------------------------------------------------------


def _fresh_suffix(names):
    suffix = "_y"
    while any((name + suffix) in names for name in names):
        suffix += "_"
    return suffix


def _embed(p: Polynomial, ring2: PolyRing, offset: int, d: int) -> Polynomial:
    terms = {}
    for exps, coeff in p.terms.items():
        padded = [0] * ring2.nvars
        for k, e in enumerate(exps):
            padded[offset + k] = e
        terms[tuple(padded)] = coeff
    return Polynomial(ring2, terms)


def _divided_difference(p: Polynomial, x_index: int, y_index: int) -> Polynomial:
    """(p - p[x->y]) / (x - y), computed term by term without division.

    A term c x^k y^e gives c x^t y^(e+k-1-t) for t < k; the terms are summed
    in one dict, and those that cancel are dropped.
    """
    terms = {}
    for exps, coeff in p.terms.items():
        k = exps[x_index]
        step = list(exps)
        for t in range(k):
            step[x_index] = t
            step[y_index] = exps[y_index] + (k - 1 - t)
            key = tuple(step)
            acc = terms.get(key)
            terms[key] = coeff if acc is None else acc + coeff
    return Polynomial(p.ring, {key: c for key, c in terms.items() if c})


def bezoutian_determinant(lg: LGPair, ring2: PolyRing) -> Polynomial:
    """Determinant of the Bezoutian matrix of the partials in x and y groups."""
    d = lg.dimension
    partials = [_embed(p, ring2, 0, d) for p in lg.partials()]
    rows = []
    substituted = list(partials)  # g_j with the first i variables moved to y
    for i in range(d):
        row = []
        for j in range(d):
            row.append(_divided_difference(substituted[j], i, d + i))
        rows.append(row)
        if i + 1 < d:
            substituted = [
                _substitute_var(g, i, d + i) for g in substituted
            ]
    return _det(ring2, rows)


def _substitute_var(p: Polynomial, source: int, target: int) -> Polynomial:
    terms = {}
    for exps, coeff in p.terms.items():
        moved = list(exps)
        moved[target] += moved[source]
        moved[source] = 0
        key = tuple(moved)
        acc = terms.get(key)
        total = coeff if acc is None else acc + coeff
        if total:
            terms[key] = total
        elif key in terms:
            del terms[key]
    return Polynomial(p.ring, terms)


class ResidueTrace:
    """The residue functional on a Jacobi algebra, with its Gram matrix."""

    __slots__ = ("algebra", "values", "gram", "scale")

    def __init__(self, algebra: JacobiAlgebra, values, gram: SparseMatrix, scale):
        self.algebra = algebra
        self.values = tuple(values)
        self.gram = gram
        self.scale = scale

    def of_coords(self, coords: Vector) -> GaussianRational:
        total = GaussianRational(0)
        for k, c in coords.items():
            v = self.values[k]
            if v:
                total = total + c * v
        return total

    def of_poly(self, p: Polynomial) -> GaussianRational:
        return self.of_coords(self.algebra.nf_coords(p))


def residue_trace(lg: LGPair, scale=Fraction(1)) -> ResidueTrace:
    """Grothendieck residue trace on lg.jacobi_algebra, normalized so
    trace(det Hessian) = dim.

    scale multiplies the whole functional (the Cardy check treats the overall
    normalization as a solvable unknown, so it is exposed here).  lg keeps
    the trace of each scale (LGPair.residue_traces), so a job computes it
    once.
    """
    scale = GaussianRational.coerce(scale)
    trace = lg.residue_traces.get(scale)
    if trace is None:
        trace = lg.residue_traces[scale] = _residue_trace(lg, scale)
    return trace


def _residue_trace(lg: LGPair, scale: GaussianRational) -> ResidueTrace:
    algebra = lg.jacobi_algebra
    if algebra.is_zero_algebra():
        raise DegenerateTraceError(
            "the Jacobi algebra is zero; no trace exists"
        )
    d = lg.dimension
    names = lg.ring.variables
    suffix = _fresh_suffix(names)
    ring2 = PolyRing(names + tuple(name + suffix for name in names))

    delta = bezoutian_determinant(lg, ring2)

    # G_x union G_y is a Groebner basis: the two groups have disjoint
    # variables, so all cross S-pairs have coprime leading terms.
    gens_x = [_embed(g, ring2, 0, d) for g in algebra.gb.generators]
    gens_y = [_embed(g, ring2, d, d) for g in algebra.gb.generators]
    combined = GroebnerBasis(ring2, gens_x + gens_y)
    reduced = combined.normal_form(delta)

    mu = algebra.dimension
    c_matrix = SparseMatrix(mu, mu)
    for exps, coeff in reduced.terms.items():
        x_part = exps[:d]
        y_part = exps[d:]
        c_matrix.set(algebra.index[x_part], algebra.index[y_part], coeff)
    try:
        gram_unscaled = c_matrix.inverse()
    except SingularMatrixError as exc:
        raise DegenerateTraceError(
            "degenerate residue pairing: the critical locus is not isolated "
            "or the algebra data is corrupted"
        ) from exc

    # symmetry and the trace(hessian) = dim normalization are theorems for
    # finite critical sets; treat violations as internal errors
    if gram_unscaled != gram_unscaled.transpose():
        raise InternalCheckError("Gram matrix not symmetric")
    values = [
        gram_unscaled.get(algebra.unit_index, k) for k in range(mu)
    ]
    check = GaussianRational(0)
    for k, c in algebra.nf_coords(hessian_determinant(lg)).items():
        check = check + c * values[k]
    if check != GaussianRational(mu):
        raise InternalCheckError("hessian normalization failed")

    if scale == 1:
        return ResidueTrace(algebra, values, gram_unscaled, scale)
    scaled_values = [scale * v for v in values]
    gram = SparseMatrix(
        mu, mu, [vec_scale(row, scale) for row in gram_unscaled.rows]
    )
    return ResidueTrace(algebra, scaled_values, gram, scale)
