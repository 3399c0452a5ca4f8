"""Landau-Ginzburg pairs (C^d, W) with optional quasi-homogeneous weights."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import ValidationError
from .groebner import GroebnerBasis
from .jacobi import JacobiAlgebra, jacobi_algebra, jacobi_groebner
from .koszul import KoszulComplex
from .poly import PolyRing, Polynomial


@dataclass(frozen=True)
class LGPair:
    """A superpotential W on C^d, plus grading data when W is graded.

    signature is the parity of the dimension d; it is the Z2-degree carried
    by every boundary trace downstream.  The key, the partials, the Jacobi
    basis and algebra and the Koszul complex are fixed by (X, W), so the
    pair computes each on first use and keeps it, and keeps the residue
    trace of each scale it is asked for.  None of them refers back to the
    pair, which is freed by reference counting.
    """

    ring: PolyRing
    w: Polynomial
    weights: Optional[tuple] = None

    def __post_init__(self):
        if self.w.ring != self.ring:
            raise ValidationError("W does not belong to the declared ring")
        if self.w.is_constant():
            raise ValidationError("W must be non-constant")
        if self.weights is not None:
            weights = tuple(self.weights)
            object.__setattr__(self, "weights", weights)
            if len(weights) != self.ring.nvars:
                raise ValidationError("one weight per variable required")
            if any(not isinstance(v, int) or v <= 0 for v in weights):
                raise ValidationError("weights must be positive integers")
            if self.w.homogeneous_weighted_degree(weights) is None:
                raise ValidationError(
                    "W is not quasi-homogeneous for the given weights"
                )

    @property
    def dimension(self) -> int:
        return self.ring.nvars

    @property
    def signature(self) -> int:
        return self.dimension % 2

    @property
    def weighted_degree(self) -> Optional[int]:
        if self.weights is None:
            return None
        return self.w.homogeneous_weighted_degree(self.weights)

    def partials(self) -> tuple:
        """The partial derivatives of W, computed once and kept."""
        return self._partials

    @cached_property
    def _partials(self) -> tuple:
        return tuple(
            self.w.partial_derivative(k) for k in range(self.dimension)
        )

    @cached_property
    def jacobi_basis(self) -> GroebnerBasis:
        """The Groebner basis of the Jacobi ideal, kept also when the
        critical set is infinite.  The job cache does not store it: computing
        it costs less than loading and verifying a stored basis."""
        return jacobi_groebner(self)

    @cached_property
    def jacobi_algebra(self) -> JacobiAlgebra:
        """The Jacobi algebra on jacobi_basis.  Raises
        NonIsolatedCriticalLocusError when the critical set is infinite."""
        return jacobi_algebra(self)

    @cached_property
    def koszul_complex(self) -> KoszulComplex:
        """The contraction complex, with the maps and eliminations that the
        Koszul table and the vanishing check share."""
        return KoszulComplex(self)

    @cached_property
    def residue_traces(self) -> dict:
        """scale -> the residue trace of the Jacobi algebra at that scale,
        filled by jacobi.residue_trace on first use of each scale."""
        return {}

    def key(self) -> tuple:
        """Canonical content key (used for caching and report echoes)."""
        return self._key

    @cached_property
    def _key(self) -> tuple:
        return (self.ring.variables, str(self.w), self.weights)


def make_lg_pair(
    variables: Sequence[str],
    w_source,
    weights: Optional[Sequence[int]] = None,
) -> LGPair:
    """Build an LGPair from variable names and polynomial text (or value)."""
    ring = PolyRing(variables)
    w = ring.parse(w_source) if isinstance(w_source, str) else w_source
    if weights is None:
        weights = detect_weights(w)
    return LGPair(ring, w, tuple(weights) if weights is not None else None)


def detect_weights(w: Polynomial) -> Optional[tuple]:
    """Positive integer weights making w quasi-homogeneous, or None.

    Solves sum_i a_i * w_i = degree over the exponent vectors of w, over
    the rationals.  The kernel is taken in its canonical basis, one vector
    per free column of the RREF, 1 there and 0 at the other free columns.
    Each vector is tried alone, in free-column order, and then their sum:
    its weights, each zero raised to 1 (as a variable absent from w has in
    every vector but its own), scaled to coprime integers, are taken when
    neither a weight nor the degree is negative and w is homogeneous for
    them.
    """
    exponents = list(w.terms)
    if not exponents:
        return None
    nvars = w.ring.nvars
    # unknowns: w_1..w_d and the common degree D; equations A.w - D = 0
    rows = [list(exps) + [-1] for exps in exponents]
    kernel, scale = _integer_kernel(rows, nvars + 1)
    if not kernel:
        return None
    for vector in kernel + [[sum(column) for column in zip(*kernel)]]:
        candidate = _positive_integer_weights(vector, scale)
        if candidate is not None and w.homogeneous_weighted_degree(candidate) is not None:
            return candidate
    return None


def _integer_kernel(rows: list, ncols: int) -> tuple:
    """(vectors, scale): the canonical kernel basis of an integer matrix,
    each vector times scale, a positive integer that makes them integral.

    Gauss-Jordan elimination over the integers: a row is cleared at a pivot
    column by a multiple of the pivot row and divided by the gcd of its
    entries, so every pivot row ends with zeros at the other pivot columns.
    The canonical vector of a free column f is 1 at f, 0 at the other free
    columns and -row[f] / row[pivot] at each pivot row's pivot; scale is the
    least common multiple of the pivots' absolute values.
    """
    rows = [row for row in rows if any(row)]
    pivots = []  # (column, row), in column order
    for col in range(ncols):
        found = next((row for row in rows if row[col]), None)
        if found is None:
            continue
        rows.remove(found)
        for other in rows + [row for _, row in pivots]:
            factor = other[col]
            if factor:
                other[:] = [found[col] * a - factor * b for a, b in zip(other, found)]
                common = gcd(*other)
                if common > 1:
                    other[:] = [a // common for a in other]
        rows = [row for row in rows if any(row)]
        pivots.append((col, found))
    scale = lcm(*[abs(row[col]) for col, row in pivots])
    taken = {col for col, _ in pivots}
    vectors = []
    for free in range(ncols):
        if free in taken:
            continue
        vector = [0] * ncols
        vector[free] = scale
        for col, row in pivots:
            vector[col] = -row[free] * (scale // row[col])
        vectors.append(vector)
    return vectors, scale


def _positive_integer_weights(vector: list, scale: int) -> Optional[tuple]:
    """The weights of a kernel vector given times scale (its last entry is
    the degree), or None when the degree or a weight is negative or every
    weight is zero.  A zero weight, a variable absent from W, becomes 1."""
    *values, degree = vector
    if degree < 0 or any(v < 0 for v in values) or not any(values):
        return None
    values = [v or scale for v in values]
    common = gcd(*values)
    return tuple(v // common for v in values)
