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
trace(det Hessian) = dim, which is checked (the Hessian from the second
partials), as are C's nonsingularity and the Gram matrix's symmetry.  The
Bezoutian's terms, on exponent tuples of the x and then the y variables, are
divided by the Jacobi basis's own reducers padded into both halves, which
share no variable and so form a Groebner basis in 2d variables: no second
ring or basis is built.  An algebra over MILNOR_LIMIT is refused first.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import TYPE_CHECKING

from .errors import (
    DegenerateTraceError,
    InternalCheckError,
    NonIsolatedCriticalLocusError,
    SingularMatrixError,
    ValidationError,
)
from .groebner import GroebnerBasis, _divide
from .linalg import SparseMatrix, Vector, columns_apply, vec_scale
from .poly import Polynomial
from .scalars import GaussianRational

if TYPE_CHECKING:  # lgpair imports this module: LGPair keeps its algebra
    from .lgpair import LGPair

# the largest quotient algebra a job computes: the trace inverts, and a report
# prints, mu x mu matrices; a Hom model's blocks are rank(X) * dim R/(c) square
MILNOR_LIMIT = 1000


def jacobi_groebner(lg: LGPair) -> GroebnerBasis:
    """Groebner basis of the ideal of partial derivatives of W, computed
    afresh; LGPair.jacobi_basis keeps one."""
    return GroebnerBasis.compute([p for p in lg.partials() if not p.is_zero()])


def is_critical_set_finite(lg: LGPair) -> bool:
    return lg.jacobi_basis.is_zero_dimensional()


class QuotientAlgebra:
    """R/I for a Groebner basis gb of an ideal I of finite colength.

    Elements are sparse coordinate vectors on the standard monomials, basis,
    which the caller counts with a limit (GroebnerBasis.standard_monomials);
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

    def __init__(self, gb: GroebnerBasis, basis):
        self.ring = gb.ring
        self.gb = gb
        self.basis = tuple(basis)
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
    the basis and the trace never pays their n * mu normal forms.  Its
    staircase count stops past MILNOR_LIMIT, refusing a larger algebra."""

    __slots__ = ()

    def __init__(self, lg: LGPair):
        basis = lg.jacobi_basis.standard_monomials(MILNOR_LIMIT)
        if basis is None:
            raise ValidationError(
                f"the Jacobi algebra is too large: its dimension mu exceeds "
                f"the limit of {MILNOR_LIMIT}"
            )
        super().__init__(lg.jacobi_basis, basis)


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


def _det(rows: list, top: int = 0, cols=None) -> dict:
    """Determinant of rows[top:] on the columns cols (all by default), rows a
    square list of terms dicts (exponent tuple -> nonzero coefficient), by
    cofactor expansion along the top row (fine at desk scale); a ring has a
    variable, so the list is not empty."""
    if cols is None:
        cols = tuple(range(len(rows)))
    if len(cols) == 1:
        return rows[top][cols[0]]
    total = {}
    for position, col in enumerate(cols):
        entry = rows[top][col]
        if not entry:
            continue
        minor = _det(rows, top + 1, cols[:position] + cols[position + 1 :])
        for ea, ca in entry.items():
            if position % 2:
                ca = -ca
            for eb, cb in minor.items():
                exps = tuple(map(add, ea, eb))
                acc = total.pop(exps, None)
                value = ca * cb if acc is None else acc + ca * cb
                if value:
                    total[exps] = value
    return total


def hessian_determinant(lg: LGPair) -> Polynomial:
    d = lg.dimension
    rows = [[p.partial_derivative(j).terms for j in range(d)] for p in lg.partials()]
    return Polynomial(lg.ring, _det(rows))


# ---------------------------------------------------------------------------
# residue trace via the Bezoutian
# ---------------------------------------------------------------------------


def _bezoutian_rows(partials, d: int) -> list:
    """The Bezoutian matrix of the partials g_j, its entries terms dicts on
    exponent tuples of length 2d: the x half, then the y half.  Entry (i, j)
    is (g_j^(i) - g_j^(i+1)) / (x_i - y_i), where g^(i) is g with x_0 ..
    x_(i-1) moved to y.  A term c x^e of g_j gives, for each t < e_i, the
    term c x_i^t x_(i+1)^e_(i+1) ... y_0^e_0 ... y_(i-1)^e_(i-1)
    y_i^(e_i-1-t).  Distinct (e, t) give distinct monomials, so each entry's
    terms are written with no sum."""
    rows = []
    for i in range(d):
        head = (0,) * i
        pad = (0,) * (d - i - 1)
        rows.append([
            {
                head + (t,) + e[i + 1 :] + e[:i] + (e[i] - 1 - t,) + pad: c
                for e, c in g.terms.items()
                for t in range(e[i])
            }
            for g in partials
        ])
    return rows


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
    pad = (0,) * d
    # the basis's reducers in the x half, then in the y half: no cross pair
    # shares a variable, so together they are a Groebner basis in 2d variables
    reducers = algebra.gb.reducers
    halves = [
        (lead + pad, inverse, [(e + pad, c) for e, c in tail])
        for lead, inverse, tail in reducers
    ] + [
        (pad + lead, inverse, [(pad + e, c) for e, c in tail])
        for lead, inverse, tail in reducers
    ]
    reduced = _divide(_det(_bezoutian_rows(lg.partials(), d)), halves)

    # each remainder term is c m_a(x) m_b(y), with m_a and m_b standard
    mu = algebra.dimension
    index = algebra.index
    rows = [{} for _ in range(mu)]
    for exps, coeff in reduced.items():
        rows[index[exps[:d]]][index[exps[d:]]] = coeff
    c_matrix = SparseMatrix(mu, mu, rows)
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
