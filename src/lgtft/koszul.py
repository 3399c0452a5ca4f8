"""The Koszul complex of the twisted contraction and its graded cohomology.

The complex lives in homological degrees -d..0; the degree-k term is the free
module on wedge monomials of size |k| and the differential contracts with the
1-form -i*dW.  For quasi-homogeneous W every graded piece is finite
dimensional and the cohomology tables are exact; otherwise a total-degree
window with a stabilization flag is used and reported as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .errors import ValidationError
from .lgpair import LGPair
from .linalg import EchelonBasis, SparseMatrix
from .poly import mono_mul, monomials_of_weighted_degree
from .scalars import MINUS_I


class KoszulComplex:
    """Wedge-basis presentation of the contraction complex."""

    __slots__ = ("lg", "ring", "d", "subsets", "diff")

    def __init__(self, lg: LGPair):
        self.lg = lg
        self.ring = lg.ring
        self.d = lg.dimension
        indices = range(self.d)
        self.subsets = {
            -size: tuple(combinations(indices, size))
            for size in range(self.d + 1)
        }
        minus_i_dw = [
            lg.w.partial_derivative(j) * MINUS_I for j in indices
        ]
        diff = {}
        for size in range(1, self.d + 1):
            for subset in self.subsets[-size]:
                images = []
                for position, j in enumerate(subset):
                    coeff = minus_i_dw[j]
                    if coeff.is_zero():
                        continue
                    target = subset[:position] + subset[position + 1 :]
                    images.append(
                        (target, coeff if position % 2 == 0 else -coeff)
                    )
                diff[subset] = tuple(images)
        self.diff = diff
        self._verify_square_zero()

    def _verify_square_zero(self):
        for size in range(2, self.d + 1):
            for subset in self.subsets[-size]:
                acc = {}
                for middle, c1 in self.diff[subset]:
                    for target, c2 in self.diff[middle]:
                        key = target
                        value = c1 * c2
                        acc[key] = acc.get(key, self.ring.zero()) + value
                assert all(p.is_zero() for p in acc.values()), (
                    "iota squared is nonzero"
                )

    def differential_entries(self, subset):
        return self.diff.get(subset, ())


def contraction_iota(lg: LGPair) -> KoszulComplex:
    """Build the contraction complex; iota^2 = 0 is asserted."""
    return KoszulComplex(lg)


@dataclass
class GradedDimensionTable:
    """Cohomology dimensions per homological degree and internal degree."""

    mode: str  # "weighted" (exact) or "total_degree" (windowed heuristic)
    bound: int
    dims: dict  # k -> {m: dim}, zero entries omitted
    totals: dict = field(default_factory=dict)
    stabilized: Optional[bool] = None
    history: Optional[dict] = None  # heuristic mode: k -> {window: total}

    def dim(self, k: int, m: int) -> int:
        return self.dims.get(k, {}).get(m, 0)

    def total(self, k: int) -> int:
        return self.totals.get(k, 0)

    def to_jsonable(self) -> dict:
        payload = {
            "mode": self.mode,
            "bound": self.bound,
            "dims": {
                str(k): {str(m): v for m, v in sorted(row.items())}
                for k, row in sorted(self.dims.items())
            },
            "totals": {str(k): v for k, v in sorted(self.totals.items())},
        }
        if self.stabilized is not None:
            payload["stabilized"] = self.stabilized
        if self.history is not None:
            payload["history"] = {
                str(k): {str(n): v for n, v in sorted(row.items())}
                for k, row in sorted(self.history.items())
            }
        return payload


class _GradedPieces:
    """Shared engine: weighted graded pieces of the Koszul complex."""

    def __init__(self, complex_: KoszulComplex, bound: int):
        lg = complex_.lg
        self.complex = complex_
        self.weights = lg.weights
        self.degree_w = lg.weighted_degree
        self.offsets = {
            subset: sum(self.degree_w - self.weights[j] for j in subset)
            for size in range(lg.dimension + 1)
            for subset in complex_.subsets[-size]
        }
        self.bound = bound
        self.min_degree = min(self.offsets.values())
        self._piece_cache = {}
        self._matrix_cache = {}
        self._rank_cache = {}

    def piece(self, k: int, m: int):
        """Ordered basis [(subset, exps)] of the degree-(k, m) piece."""
        key = (k, m)
        cached = self._piece_cache.get(key)
        if cached is not None:
            return cached
        basis = []
        for subset in self.complex.subsets.get(k, ()):
            remaining = m - self.offsets[subset]
            if remaining < 0:
                continue
            for exps in monomials_of_weighted_degree(self.weights, remaining):
                basis.append((subset, exps))
        self._piece_cache[key] = basis
        return basis

    def matrix(self, k: int, m: int) -> SparseMatrix:
        """Matrix of the differential on the (k, m) piece (degree preserved)."""
        key = (k, m)
        cached = self._matrix_cache.get(key)
        if cached is not None:
            return cached
        source = self.piece(k, m)
        target = self.piece(k + 1, m)
        target_index = {element: row for row, element in enumerate(target)}
        matrix = SparseMatrix(len(target), len(source))
        for col, (subset, exps) in enumerate(source):
            for image_subset, coeff in self.complex.differential_entries(subset):
                for e, c in coeff.terms.items():
                    element = (image_subset, mono_mul(exps, e))
                    row = target_index.get(element)
                    if row is None:
                        continue  # outside the piece cannot happen when graded
                    matrix.set(row, col, matrix.get(row, col) + c)
        self._matrix_cache[key] = matrix
        return matrix

    def rank(self, k: int, m: int) -> int:
        key = (k, m)
        cached = self._rank_cache.get(key)
        if cached is None:
            cached = self.matrix(k, m).rank()
            self._rank_cache[key] = cached
        return cached

    def cohomology_dim(self, k: int, m: int) -> int:
        dim = len(self.piece(k, m))
        if dim == 0:
            return 0
        rank_out = self.rank(k, m) if k < 0 else 0
        rank_in = self.rank(k - 1, m) if k > -self.complex.d else 0
        return dim - rank_out - rank_in


def koszul_cohomology(lg: LGPair, degree_bound: int) -> GradedDimensionTable:
    """Exact graded cohomology table (weighted) or windowed table (otherwise)."""
    if degree_bound < 0:
        raise ValidationError("degree bound must be non-negative")
    complex_ = KoszulComplex(lg)
    if lg.weights is not None:
        return _weighted_table(complex_, degree_bound)
    return _windowed_table(complex_, degree_bound)


def _weighted_table(complex_: KoszulComplex, bound: int) -> GradedDimensionTable:
    pieces = _GradedPieces(complex_, bound)
    dims: dict = {}
    totals: dict = {}
    for k in range(-complex_.d, 1):
        row = {}
        for m in range(pieces.min_degree, bound + 1):
            value = pieces.cohomology_dim(k, m)
            if value:
                row[m] = value
        dims[k] = row
        totals[k] = sum(row.values())
    return GradedDimensionTable(
        mode="weighted", bound=bound, dims=dims, totals=totals, stabilized=True
    )


def _window_basis(complex_: KoszulComplex, k: int, bound: int):
    basis = []
    for subset in complex_.subsets.get(k, ()):
        weights = (1,) * complex_.d
        for m in range(bound + 1):
            for exps in monomials_of_weighted_degree(weights, m):
                basis.append((subset, exps))
    return basis


def _window_matrix(complex_: KoszulComplex, k: int, bound: int, target_bound: int):
    source = _window_basis(complex_, k, bound)
    target = _window_basis(complex_, k + 1, target_bound)
    target_index = {element: row for row, element in enumerate(target)}
    matrix = SparseMatrix(len(target), len(source))
    for col, (subset, exps) in enumerate(source):
        for image_subset, coeff in complex_.differential_entries(subset):
            for e, c in coeff.terms.items():
                element = (image_subset, mono_mul(exps, e))
                row = target_index.get(element)
                assert row is not None, "window too small for the differential"
                matrix.set(row, col, matrix.get(row, col) + c)
    return matrix


def _windowed_table(complex_: KoszulComplex, bound: int) -> GradedDimensionTable:
    """Total-degree window heuristic for non-quasi-homogeneous W."""
    spread = max(
        (p.total_degree() for p in complex_.lg.partials() if not p.is_zero()),
        default=0,
    )
    spread = max(spread, 1)
    windows = [n for n in (bound - 2, bound - 1, bound) if n >= 0]
    history: dict = {k: {} for k in range(-complex_.d, 1)}
    for window in windows:
        for k in range(-complex_.d, 1):
            source_dim = len(_window_basis(complex_, k, window))
            if source_dim == 0:
                history[k][window] = 0
                continue
            rank_out = (
                _window_matrix(complex_, k, window, window + spread).rank()
                if k < 0
                else 0
            )
            kernel_dim = source_dim - rank_out
            rank_in = 0
            if k > -complex_.d and window - spread >= 0:
                rank_in = _window_matrix(
                    complex_, k - 1, window - spread, window
                ).rank()
            history[k][window] = kernel_dim - rank_in
    dims = {k: {bound: history[k][bound]} for k in history if history[k][bound]}
    totals = {k: history[k][bound] for k in history}
    stabilized = len(windows) >= 2 and all(
        history[k][windows[-1]] == history[k][windows[-2]] for k in history
    )
    return GradedDimensionTable(
        mode="total_degree",
        bound=bound,
        dims=dims,
        totals=totals,
        stabilized=stabilized,
        history=history,
    )


@dataclass
class VanishingReport:
    """Outcome of the negative-degree vanishing check."""

    vanishes: bool
    bound: int
    witness_degree: Optional[tuple] = None  # (k, m)
    witness: Optional[list] = None  # [(subset, Polynomial)]

    def to_jsonable(self) -> dict:
        payload = {"vanishes": self.vanishes, "bound": self.bound}
        if self.witness is not None:
            payload["witness_degree"] = list(self.witness_degree)
            payload["witness"] = [
                {"wedge": list(subset), "coefficient": str(p)}
                for subset, p in self.witness
            ]
        return payload


def check_vanishing_negative_degrees(
    lg: LGPair, degree_bound: int
) -> VanishingReport:
    """True iff H^k = 0 for all k < 0 up to the bound; else returns a witness.

    The witness is a cocycle in the offending degree that is not a boundary;
    callers can re-check both properties independently.
    """
    if degree_bound < 0:
        raise ValidationError("degree bound must be non-negative")
    complex_ = KoszulComplex(lg)
    if lg.weights is None:
        table = _windowed_table(complex_, degree_bound)
        for k in range(-complex_.d, 0):
            if table.totals.get(k):
                witness = _window_witness(complex_, k, degree_bound)
                return VanishingReport(False, degree_bound, (k, degree_bound), witness)
        return VanishingReport(True, degree_bound)
    pieces = _GradedPieces(complex_, degree_bound)
    for m in range(pieces.min_degree, degree_bound + 1):
        for k in range(-complex_.d, 0):
            if pieces.cohomology_dim(k, m) > 0:
                witness = _graded_witness(pieces, k, m)
                return VanishingReport(False, degree_bound, (k, m), witness)
    return VanishingReport(True, degree_bound)


def _graded_witness(pieces: _GradedPieces, k: int, m: int):
    basis = pieces.piece(k, m)
    kernel = pieces.matrix(k, m).nullspace()
    image = EchelonBasis()
    if k > -pieces.complex.d:
        incoming = pieces.matrix(k - 1, m)
        for column in incoming.transpose().rows:
            image.insert(column)
    for vector in kernel:
        if not image.contains(vector):
            return _vector_to_wedge(pieces.complex, basis, vector)
    raise AssertionError("positive cohomology dimension but no witness found")


def _window_witness(complex_: KoszulComplex, k: int, bound: int):
    spread = max(
        (p.total_degree() for p in complex_.lg.partials() if not p.is_zero()),
        default=1,
    )
    basis = _window_basis(complex_, k, bound)
    matrix = _window_matrix(complex_, k, bound, bound + spread)
    kernel = matrix.nullspace()
    image = EchelonBasis()
    if k > -complex_.d and bound - spread >= 0:
        incoming = _window_matrix(complex_, k - 1, bound - spread, bound)
        for column in incoming.transpose().rows:
            image.insert(column)
    for vector in kernel:
        if not image.contains(vector):
            return _vector_to_wedge(complex_, basis, vector)
    return None


def _vector_to_wedge(complex_: KoszulComplex, basis, vector):
    by_subset: dict = {}
    for index, coeff in sorted(vector.items()):
        subset, exps = basis[index]
        acc = by_subset.get(subset, complex_.ring.zero())
        by_subset[subset] = acc + complex_.ring.monomial(exps, coeff)
    return [
        (subset, poly)
        for subset, poly in sorted(by_subset.items())
        if not poly.is_zero()
    ]


def apply_iota(complex_: KoszulComplex, element):
    """Apply the differential to [(subset, Polynomial)]; used to re-check witnesses."""
    acc: dict = {}
    for subset, poly in element:
        for target, coeff in complex_.differential_entries(subset):
            image = coeff * poly
            if image.is_zero():
                continue
            current = acc.get(target, complex_.ring.zero())
            acc[target] = current + image
    return [
        (subset, poly) for subset, poly in sorted(acc.items()) if not poly.is_zero()
    ]
