"""Landau-Ginzburg pairs (C^d, W) with optional quasi-homogeneous weights."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

from .errors import ValidationError
from .groebner import GroebnerBasis
from .jacobi import JacobiAlgebra, jacobi_algebra, jacobi_groebner
from .koszul import KoszulComplex
from .linalg import SparseMatrix
from .poly import PolyRing, Polynomial


@dataclass(frozen=True)
class LGPair:
    """A superpotential W on C^d, plus grading data when W is graded.

    signature is the parity of the dimension d; it is the Z2-degree carried
    by every boundary trace downstream.  The key, the Jacobi basis and
    algebra and the Koszul complex are fixed by (X, W), so the pair computes
    each on first use and keeps it, and keeps the residue trace of each
    scale it is asked for.  None of them refers back to the pair, which is freed by
    reference counting.
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

    Solves sum_i a_i * w_i = degree over the exponent vectors of w; variables
    absent from w get weight 1.
    """
    exponents = list(w.terms)
    if not exponents:
        return None
    nvars = w.ring.nvars
    # unknowns: w_1..w_d and the common degree D; equations A.w - D = 0
    matrix = SparseMatrix(len(exponents), nvars + 1)
    for row, exps in enumerate(exponents):
        for col, e in enumerate(exps):
            if e:
                matrix.set(row, col, e)
        matrix.set(row, nvars, -1)
    kernel = matrix.nullspace()
    if not kernel:
        return None
    # any positive combination works; try single kernel vectors first
    for vector in kernel:
        candidate = _positive_integer_weights(vector, nvars)
        if candidate is not None and w.homogeneous_weighted_degree(candidate) is not None:
            return candidate
    # fall back to the sum of all kernel vectors
    combined = {}
    for vector in kernel:
        for k, v in vector.items():
            combined[k] = combined.get(k, Fraction(0)) + v.re
    candidate = _positive_integer_weights(
        {k: v for k, v in combined.items() if v}, nvars, raw=True
    )
    if candidate is not None and w.homogeneous_weighted_degree(candidate) is not None:
        return candidate
    return None


def _positive_integer_weights(vector, nvars, raw=False):
    values = []
    for k in range(nvars):
        v = vector.get(k)
        if v is None:
            values.append(Fraction(0))
            continue
        v = v if raw else v.re
        values.append(Fraction(v))
    degree = vector.get(nvars)
    if degree is not None:
        degree = degree if raw else degree.re
        if degree <= 0:
            return None
    # variables not appearing in W have a free weight; give them 1
    if any(v < 0 for v in values):
        return None
    if all(v == 0 for v in values):
        return None
    values = [v if v > 0 else Fraction(1) for v in values]
    denominator_lcm = 1
    for v in values:
        denominator_lcm = denominator_lcm * v.denominator // gcd(
            denominator_lcm, v.denominator
        )
    ints = [int(v * denominator_lcm) for v in values]
    common = 0
    for v in ints:
        common = gcd(common, v)
    if common > 1:
        ints = [v // common for v in ints]
    return tuple(ints)
