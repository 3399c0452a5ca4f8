"""The Koszul complex of the twisted contraction and its graded cohomology.

The complex lives in homological degrees -d..0; the degree-k term is the free
module on wedge monomials of size |k| and the differential contracts with the
1-form -i*dW.  For quasi-homogeneous W every graded piece is finite
dimensional and the cohomology tables are exact; otherwise a total-degree
window with a stabilization flag is used and reported as such.

The LG pair keeps its Koszul complex (LGPair.koszul_complex), so the table
and the vanishing check of one pair share its maps and their eliminations.
A table reads only ranks, so every map it eliminates gets the forward pass
(SparseMatrix.echelon), never a full reduction.  A windowed table asks for
the ranks at its bound first, so FreeComplex.rank eliminates the map out of
each index once, columns in degree order, and counts the ranks of the
smaller windows off that pass's pivots.  The vanishing witness is the first
vector of the piece's canonical kernel basis that is not a boundary, found
in kernel coordinates by FreeComplex.first_class: the free columns come
from the forward pass of the map out in basis order (the graded table's own
pass), and only the vector reported is solved back over its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Optional

from .complex import FreeComplex
from .errors import InternalCheckError, ValidationError
from .scalars import MINUS_I

if TYPE_CHECKING:  # lgpair imports this module: LGPair keeps its complex
    from .lgpair import LGPair


class KoszulComplex(FreeComplex):
    """Wedge-basis presentation of the contraction complex.

    The generators of degree -|S| are the wedge monomials e_S; the internal
    degree of e_S is the sum of deg W - w_j over j in S.  It keeps no
    reference to the pair, which keeps it.
    """

    def __init__(self, lg: LGPair):
        self.d = lg.dimension
        indices = range(self.d)
        self.subsets = {
            -size: tuple(combinations(indices, size))
            for size in range(self.d + 1)
        }
        minus_i_dw = [
            lg.w.partial_derivative(j) * MINUS_I for j in indices
        ]

        def entries(subset):
            images = []
            for position, j in enumerate(subset):
                coeff = minus_i_dw[j]
                if coeff.is_zero():
                    continue
                target = subset[:position] + subset[position + 1 :]
                images.append((target, coeff if position % 2 == 0 else -coeff))
            return images

        def offset(subset):
            if lg.weights is None:
                return 0
            return sum(lg.weighted_degree - lg.weights[j] for j in subset)

        super().__init__(
            lg.ring,
            {
                k: [(subset, offset(subset)) for subset in subsets]
                for k, subsets in self.subsets.items()
            },
            {k: k + 1 for k in range(-self.d, 0)},
            entries,
            lg.weights,
        )


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


def koszul_cohomology(lg: LGPair, degree_bound: int) -> GradedDimensionTable:
    """Exact graded cohomology table (weighted) or windowed table (otherwise)."""
    if degree_bound < 0:
        raise ValidationError("degree bound must be non-negative")
    complex_ = lg.koszul_complex
    homological = range(-complex_.d, 1)
    if lg.weights is not None:
        dims = {
            k: {
                m: value
                for m in range(complex_.min_degree, degree_bound + 1)
                if (value := complex_.dim(k, m))
            }
            for k in homological
        }
        totals = {k: sum(row.values()) for k, row in dims.items()}
        return GradedDimensionTable(
            mode="weighted",
            bound=degree_bound,
            dims=dims,
            totals=totals,
            stabilized=True,
        )
    # total-degree window heuristic for non-quasi-homogeneous W
    windows = [n for n in (degree_bound - 2, degree_bound - 1, degree_bound) if n >= 0]
    # the bound first, so that rank() eliminates each index once
    totals = {k: complex_.dim(k, degree_bound) for k in homological}
    history = {k: {n: complex_.dim(k, n) for n in windows} for k in homological}
    stabilized = len(windows) >= 2 and all(
        row[windows[-1]] == row[windows[-2]] for row in history.values()
    )
    return GradedDimensionTable(
        mode="total_degree",
        bound=degree_bound,
        dims={k: {degree_bound: v} for k, v in totals.items() if v},
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


def check_vanishing_negative_degrees(lg: LGPair, degree_bound: int) -> VanishingReport:
    """True iff H^k = 0 for all k < 0 up to the bound; else returns a witness.

    The witness is a cocycle in the offending degree that is not a boundary;
    callers can re-check both properties independently.  Ranks that
    koszul_cohomology eliminated on the same pair are not eliminated again.
    """
    if degree_bound < 0:
        raise ValidationError("degree bound must be non-negative")
    complex_ = lg.koszul_complex
    if lg.weights is not None:
        degrees = range(complex_.min_degree, degree_bound + 1)
    else:
        degrees = [degree_bound]
    for m in degrees:
        for k in range(-complex_.d, 0):
            if complex_.dim(k, m) > 0:
                witness = _witness(complex_, k, m)
                return VanishingReport(False, degree_bound, (k, m), witness)
    return VanishingReport(True, degree_bound)


def _witness(complex_: KoszulComplex, k: int, m: int):
    """The first kernel vector of the (k, m) piece that is not a boundary."""
    vector = complex_.first_class(k, m)
    if vector is None:
        raise InternalCheckError("positive cohomology dimension but no witness found")
    return _vector_to_wedge(complex_, complex_.basis(k, m), vector)


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
        for target, coeff in complex_.entries.get(subset, ()):
            image = coeff * poly
            if image.is_zero():
                continue
            current = acc.get(target, complex_.ring.zero())
            acc[target] = current + image
    return [
        (subset, poly) for subset, poly in sorted(acc.items()) if not poly.is_zero()
    ]
