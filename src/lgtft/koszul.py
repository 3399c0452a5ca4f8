"""The Koszul complex of the twisted contraction and its graded cohomology.

The complex lives in homological degrees -d..0; the degree-k term is the free
module on wedge monomials of size |k| and the differential contracts with the
1-form -i*dW.  For quasi-homogeneous W every graded piece is finite
dimensional and the cohomology tables are exact; otherwise a total-degree
window with a stabilization flag is used and reported as such.

For quasi-homogeneous W with a finite critical set no piece is built and
nothing is eliminated.  The partials are then a regular sequence (Eisenbud,
Commutative Algebra, ch. 17), so the complex is exact outside degree 0 and
H^0 is the Jacobi algebra: the table counts the standard monomials of the
pair's verified Jacobi basis per weighted degree, checks the counts against
the Milnor-Orlik Poincare polynomial, and the vanishing check holds with no
witness.  The pair's Koszul complex is still built, so its d^2 = 0 check
runs on every route.

Graded tables at an infinite critical set and every windowed table are
computed by elimination (_eliminated_table), which is also the staircase
route's test oracle.  The LG pair keeps its Koszul complex
(LGPair.koszul_complex), so the table and the vanishing check of one pair
share its maps and their eliminations.  A table reads only ranks, so every
map it eliminates gets the forward pass (SparseMatrix.echelon), never a full
reduction.  A windowed table asks for the ranks at its bound first, so
FreeComplex.rank eliminates the map out of each index above -d once,
columns in degree order, and counts the ranks of the smaller windows off
that pass's pivots.  The map out of the top index -d, f -> f * (-i dW), is
never built: R is a domain and W is not constant, so the map is injective,
and so is its restriction to each graded piece or window, whose rank is
then its size (KoszulComplex.rank).  The vanishing witness is the first
vector of the piece's canonical kernel basis that is not a boundary, found
in kernel coordinates by FreeComplex.first_class: the free columns come
from the forward pass of the map out in basis order (the graded table's
own pass), and only the vector reported is solved back over its rows.  When
the map into the witness piece comes out of the top index, first_class
holds the count to that map's own elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import TYPE_CHECKING, Optional

from .complex import FreeComplex
from .errors import InternalCheckError, ValidationError
from .poly import mono_weighted_degree
from .scalars import MINUS_I

if TYPE_CHECKING:  # lgpair imports this module: LGPair keeps its complex
    from .lgpair import LGPair


class KoszulComplex(FreeComplex):
    """Wedge-basis presentation of the contraction complex.

    The generators of degree -|S| are the wedge monomials e_S; the internal
    degree of e_S is the sum of deg W - w_j over j in S.  It keeps no
    reference to the pair, which keeps it.

    The map out of the top index -d is f e_{1..d} -> f * (-i dW), from R to
    R^d.  It is injective: R = C[x] is a domain and W is not constant, so
    some partial is a nonzero polynomial, and f times it is zero only for
    f = 0.  The map out of a graded piece or a window of that index is the
    restriction of that map, so it is injective too, and rank() counts it as
    the piece's size, with no matrix built and nothing eliminated.
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

    def rank(self, index, degree) -> int:
        """Rank of the map out of the piece; out of the top index, the
        piece's size (see the class docstring)."""
        if index != -self.d:
            return super().rank(index, degree)
        if not self.entries[self.subsets[index][0]]:
            raise InternalCheckError(
                "every partial of W is zero: the map out of the top index "
                "is not injective, so its rank cannot be counted"
            )
        return self._layout(index, degree)[0]


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
    return _table(lg, degree_bound)


def _table(lg: LGPair, degree_bound: int) -> GradedDimensionTable:
    """The table of koszul_cohomology: off the staircase when W is graded
    and the critical set finite, else by elimination.  The vanishing check
    reads it here, so that a profile of koszul_cohomology counts the tables
    a job asks for, not the vanishing check's reading of one."""
    if degree_bound < 0:
        raise ValidationError("degree bound must be non-negative")
    complex_ = lg.koszul_complex  # built, and d^2 = 0 checked, on every route
    if lg.weights is None or not lg.jacobi_basis.is_zero_dimensional():
        return _eliminated_table(lg, degree_bound)
    counts = _staircase_counts(lg)
    dims = {k: {} for k in range(-complex_.d, 0)}
    dims[0] = {m: v for m, v in sorted(counts.items()) if m <= degree_bound}
    return GradedDimensionTable(
        mode="weighted",
        bound=degree_bound,
        dims=dims,
        totals={k: sum(row.values()) for k, row in dims.items()},
        stabilized=True,
    )


def _staircase_counts(lg: LGPair) -> dict:
    """Weighted degree -> the number of standard monomials of the Jacobi
    basis in it (the Jacobi algebra's basis, which the pair keeps), checked
    against the Milnor-Orlik Poincare polynomial.

    The partials of a graded W with finite critical set are a regular
    sequence, of weighted degrees D - w_j, so the Hilbert series P(t) of the
    Jacobi algebra satisfies P(t) * prod(1 - t^w_j) = prod(1 - t^(D - w_j))
    (Milnor and Orlik, Topology 9, 1970).  The counts must meet it exactly
    as integer polynomials, or InternalCheckError is raised.
    """
    weights, degree = lg.weights, lg.weighted_degree
    counts: dict = {}
    for exps in lg.jacobi_algebra.basis:  # the standard monomials
        m = mono_weighted_degree(exps, weights)
        counts[m] = counts.get(m, 0) + 1
    left, right = counts, {0: 1}
    for w in weights:
        left = _times_one_minus(left, w)
        right = _times_one_minus(right, degree - w)
    if left != right:
        raise InternalCheckError(
            f"the staircase counts {dict(sorted(counts.items()))} do not give "
            "the Poincare polynomial of a graded isolated singularity"
        )
    return counts


def _times_one_minus(poly: dict, shift: int) -> dict:
    """poly * (1 - t^shift) for an integer polynomial {exponent: coeff}
    holding no zero coefficient; shift may be zero or negative."""
    out = dict(poly)
    for e, c in poly.items():
        value = out.get(e + shift, 0) - c
        if value:
            out[e + shift] = value
        else:
            del out[e + shift]
    return out


def _eliminated_table(lg: LGPair, degree_bound: int) -> GradedDimensionTable:
    """The table by elimination of the complex's maps: the route of graded
    tables at infinite critical set and of every windowed table, and the
    oracle the staircase route is tested against."""
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
    # the bound first, so that rank() eliminates each index above -d once
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

    It reads the table of koszul_cohomology, which on the same pair costs no
    elimination again.  The witness is a cocycle in the first offending
    degree (lowest internal degree, then lowest k) that is not a boundary;
    callers can re-check both properties independently.
    """
    return _vanishing(lg.koszul_complex, _table(lg, degree_bound))


def _vanishing(complex_: KoszulComplex, table: GradedDimensionTable) -> VanishingReport:
    """The vanishing report of a table of the complex, with its witness."""
    offending = [(m, k) for k, row in table.dims.items() if k < 0 for m in row]
    if not offending:
        return VanishingReport(True, table.bound)
    m, k = min(offending)
    return VanishingReport(False, table.bound, (k, m), _witness(complex_, k, m))


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
