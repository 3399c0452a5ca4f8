"""Free Z2-graded factorizations of W and their morphism cohomology.

A chain-level morphism is its terms {((parity, blk, i, j), exps): coeff},
one per monomial times elementary map of the Hom complex, and all its
arithmetic (sum, scale, composition, the defect, the supertrace) works on
them.  An object keeps its differential D the same way, as the terms of an
odd endomorphism, with D o D = W*Id verified exactly on them; polynomial
matrices only enter through the block constructors.
Morphism complexes carry the defect differential
d(f) = D2 o f - (-1)^{deg f} f o D1; cohomology is computed degreewise in the
internal (weighted) grading when both objects are gradable, and through a
total-degree window with a stabilization flag otherwise.

A Hom out of a Koszul brane keeps its model X/(c)X from the certificate
module, built once its blocks match D_X mod (c) read by a second route.  A
graded Hom takes the number of classes in each degree first, and builds
with FreeComplex.piece only the pieces where that number is nonzero,
requiring each to hold it.  With a model, the numbers are the model's up to
the bound, and a Hom that then holds every class checks them against
X/(c)X once.  Every other graded Hom counts them as FreeComplex.dim does: a
piece's size less the ranks of the maps out and in.  Either way no unbuilt
degree up to the bound holds a class.  A windowed Hom with a model lifts
its classes from X/(c)X; any other builds its one-piece window.

A class is reduced piece by piece modulo image and quotient, and that
residual test decides whether a morphism is a cocycle; in an unbuilt
degree, or in a lifted Hom, a component is a cocycle when the complex's
entries send it to zero.  A class's representative is a combination of
quotient rows or of lifts, so it is a Morphism with no conversion;
composition on cohomology composes the representatives with
Morphism.compose and reduces the composite in the target Hom.

Projective modules are realized as free modules throughout: over C^d every
finitely generated projective module is free, so nothing is lost at this
scale, but it does specialize the general definition.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .complex import FreeComplex, differential
from .errors import (
    ClassBoundError,
    FactorizationError,
    InternalCheckError,
    NonCocycleError,
    ShapeError,
    ValidationError,
)
from .certificate import UNSET, koszul_model, lift_classes
from .lgpair import LGPair
from .linalg import SparseMatrix, echelon_reduce, vec_axpy
from .poly import Polynomial, mono_degree, mono_mul, mono_weighted_degree
from .polymatrix import PolyMatrix, _as_poly
from .scalars import GaussianRational


class MatrixFactorization:
    """Free supermodule P0 + P1 with odd differential squaring to W.

    d_terms holds D as the terms of an odd endomorphism (see Morphism), read
    once from the blocks d01 (P0 -> P1) and d10 (P1 -> P0).  D wraps them in
    a Morphism on each access: a kept Morphism would refer back to the brane,
    a cycle that keeps it and its LG pair until the cycle collector runs.

    pairs holds the factor pairs (a_k, b_k) of a Koszul factorization, as
    koszul_factorization parsed them, and is None otherwise.  It is not part
    of key(): it only lets koszul_hom_dims certify Hom dimensions.
    certificate.koszul_model keeps the quotient algebra R/(c) of the ideal
    it picks from them, with its choice, in _ideal, which the models of all
    Homs out of this brane share; each HomCohomology keeps its own model.
    """

    __slots__ = (
        "lg", "rank0", "rank1", "d_terms", "weights0", "weights1", "pairs",
        "_ideal", "_key",
    )

    def __init__(self, lg, d01, d10, weights0=None, weights1=None):
        self.lg = lg
        self.rank0 = d01.ncols
        self.rank1 = d01.nrows
        self.weights0 = tuple(weights0) if weights0 is not None else None
        self.weights1 = tuple(weights1) if weights1 is not None else None
        self.pairs = None
        self._ideal = UNSET
        self._key = None
        self.d_terms = Morphism(self, self, 1, d01, d10).terms

    @property
    def D(self) -> "Morphism":
        return Morphism._from_terms(self, self, 1, self.d_terms)

    @property
    def graded(self) -> bool:
        return self.weights0 is not None and self.weights1 is not None

    def key(self) -> tuple:
        """The LG pair's key, the ranks and D's terms in sorted order, each
        coefficient as its integer triple; built once, as D is immutable."""
        if self._key is None:
            terms = sorted(self.d_terms.items())
            self._key = (self.lg.key(), self.rank0, self.rank1, tuple(
                (element, exps, coeff.triple()) for (element, exps), coeff in terms
            ))
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, MatrixFactorization):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"MatrixFactorization(rank {self.rank0}|{self.rank1})"


def make_factorization(
    lg: LGPair,
    d01: PolyMatrix,
    d10: PolyMatrix,
    weights0: Optional[Sequence[int]] = None,
    weights1: Optional[Sequence[int]] = None,
) -> MatrixFactorization:
    """Validate D^2 = W*Id exactly and attach internal weights when possible.

    weights are in doubled units (a monomial of weighted degree t has internal
    degree 2t) so that the differential can be homogeneous of integer degree.
    """
    if d01.ring != lg.ring or d10.ring != lg.ring:
        raise ValidationError("factorization blocks not over the LG ring")
    if d01.ncols != d10.nrows or d01.nrows != d10.ncols:
        raise ShapeError(
            f"incompatible blocks: d01 is {d01.nrows}x{d01.ncols}, "
            f"d10 is {d10.nrows}x{d10.ncols}"
        )
    return _validated(MatrixFactorization(lg, d01, d10), weights0, weights1)


def _validated(factorization, weights0, weights1) -> MatrixFactorization:
    """The factorization, once D^2 = W*Id holds, with the given weights if D
    is homogeneous for them, else with inferred weights when there are any."""
    _check_squares(factorization)
    rank0, rank1 = factorization.rank0, factorization.rank1
    edges = _weight_edges(factorization)
    if weights0 is not None or weights1 is not None:
        if weights0 is None or weights1 is None:
            raise ValidationError("give weights for both parities or neither")
        if len(weights0) != rank0 or len(weights1) != rank1:
            raise ValidationError("one weight per basis vector required")
        weights = (tuple(weights0), tuple(weights1))
        if edges is None or any(
            weights[t][i] - weights[s][j] != delta for (s, j), (t, i), delta in edges
        ):
            raise ValidationError(
                "the differential is not homogeneous for the given weights"
            )
    else:
        weights = _infer_weights(edges, rank0, rank1) or (None, None)
    factorization.weights0, factorization.weights1 = weights
    return factorization


def _check_squares(factorization):
    """D o D = W*Id on terms.  Otherwise FactorizationError names the first
    differing entry, the even summand before the odd one, each in row-major
    order, and prints it and W*Id's entry as polynomials."""
    lg = factorization.lg
    D = factorization.D
    square = D.compose(D)
    expected = {
        ((0, blk, i, i), exps): coeff
        for blk, rank in enumerate((factorization.rank0, factorization.rank1))
        for i in range(rank)
        for exps, coeff in lg.w.terms.items()
    }
    if square.terms == expected:
        return
    _, blk, i, j = min(
        element for (element, _), _ in square.terms.items() ^ expected.items()
    )
    got = square.entries().get((blk, i, j), lg.ring.zero())
    raise FactorizationError(
        f"D^2 differs from W*Id on the {('even', 'odd')[blk]} summand at entry "
        f"({i + 1},{j + 1}): got {got}, "
        f"expected {lg.w if i == j else lg.ring.zero()}"
    )


def _weight_edges(factorization) -> Optional[list]:
    """The homogeneity constraints of D, one edge (source, target, delta) per
    nonzero entry: wt(target) - wt(source) = deg W - deg(entry), in doubled
    units.  Nodes are (0, j) for the even basis and (1, i) for the odd one.
    None when W has no weights or an entry is not quasi-homogeneous."""
    lg = factorization.lg
    if lg.weights is None:
        return None
    h, degrees = lg.weighted_degree, {}
    for (_, b, i, j), e in factorization.d_terms:
        t = mono_weighted_degree(e, lg.weights)
        if degrees.setdefault((b, i, j), t) != t:
            return None
    return [((b, j), (1 - b, i), h - 2 * t) for (b, i, j), t in degrees.items()]


def _infer_weights(edges, rank0, rank1):
    """Weights making D homogeneous, or None; components anchored at zero."""
    if edges is None:
        return None
    adjacent = {}
    for a, b, delta in edges:
        adjacent.setdefault(a, []).append((b, delta))
        adjacent.setdefault(b, []).append((a, -delta))
    assignment = {}
    for start in [(0, j) for j in range(rank0)] + [(1, i) for i in range(rank1)]:
        if start in assignment:
            continue
        assignment[start] = 0
        queue = [start]
        while queue:
            node = queue.pop()
            base = assignment[node]
            for neighbor, delta in adjacent.get(node, ()):
                value = base + delta
                known = assignment.get(neighbor)
                if known is None:
                    assignment[neighbor] = value
                    queue.append(neighbor)
                elif known != value:
                    return None
    weights0 = tuple(assignment[(0, j)] for j in range(rank0))
    weights1 = tuple(assignment[(1, i)] for i in range(rank1))
    return weights0, weights1


def koszul_factorization(lg: LGPair, pairs) -> MatrixFactorization:
    """Tensor of rank 1|1 factorizations for pairs (a_k, b_k), sum a_k b_k = W.

    Standard generator of test objects.  The first pair is read from its
    1 x 1 blocks.  Tensoring D (rank r|r) with each further pair (a, b) gives
    d01' = [[d01, -b], [a, d10]] and d10' = [[d10, b], [-a, d01]], with a and
    b times the r x r identity, whose terms are written directly.  D^2 is
    then sum(a*b) * Id, so when that sum is not W, the D^2 = W*Id check
    fails at entry (1,1) of the even summand and prints the sum.
    """
    ring = lg.ring
    parsed = []
    for a, b in pairs:
        a = ring.parse(a) if isinstance(a, str) else a
        b = ring.parse(b) if isinstance(b, str) else b
        parsed.append((a, b))
    if not parsed:
        raise ValidationError("at least one factor pair is required")
    (a0, b0), rank = parsed[0], 1
    factorization = MatrixFactorization(
        lg, PolyMatrix(ring, [[a0]]), PolyMatrix(ring, [[b0]])
    )
    terms = factorization.d_terms
    for a, b in parsed[1:]:
        grown = {}
        for ((_, blk, i, j), exps), coeff in terms.items():
            grown[((1, blk, i, j), exps)] = coeff
            grown[((1, 1 - blk, rank + i, rank + j), exps)] = coeff
        for i in range(rank):
            for blk, sign in ((0, 1), (1, -1)):
                for exps, coeff in b.terms.items():
                    grown[((1, blk, i, rank + i), exps)] = -sign * coeff
                for exps, coeff in a.terms.items():
                    grown[((1, blk, rank + i, i), exps)] = sign * coeff
        terms, rank = grown, 2 * rank
    factorization.rank0 = factorization.rank1 = rank
    factorization.d_terms = terms
    factorization.pairs = tuple(parsed)
    return _validated(factorization, None, None)


# ---------------------------------------------------------------------------
# morphisms and the defect differential
# ---------------------------------------------------------------------------


class Morphism:
    """Homogeneous-parity module map between factorizations, as its terms.

    terms is {((parity, blk, i, j), exps): coeff}, nonzero coefficients only,
    the labels of the Hom complex: the element (parity, blk, i, j) maps basis
    vector j of the source module of parity blk to basis vector i of the
    target module of parity blk + parity, times the monomial x^exps.  The
    constructor reads two polynomial matrices into terms once: blk0 has the
    even source module, blk1 the odd one, and their targets have parities
    (parity, 1 - parity).  _from_terms takes terms as they are.
    """

    __slots__ = ("source", "target", "parity", "terms")

    def __init__(self, source, target, parity, blk0, blk1):
        parity %= 2
        for block, (nrows, ncols, _, _) in zip(
            (blk0, blk1), _block_shapes(source, target, parity)
        ):
            if (block.nrows, block.ncols) != (nrows, ncols):
                raise ShapeError("morphism blocks have the wrong shape")
        self.source = source
        self.target = target
        self.parity = parity
        self.terms = {
            ((parity, blk, i, j), exps): coeff
            for blk, block in enumerate((blk0, blk1))
            for i, row in enumerate(block.entries)
            for j, entry in enumerate(row)
            for exps, coeff in entry.terms.items()
        }

    @classmethod
    def _from_terms(cls, source, target, parity, terms) -> "Morphism":
        morphism = cls.__new__(cls)
        morphism.source = source
        morphism.target = target
        morphism.parity = parity % 2
        morphism.terms = terms
        return morphism

    @classmethod
    def zero(cls, source, target, parity) -> "Morphism":
        return cls._from_terms(source, target, parity, {})

    @classmethod
    def identity(cls, obj) -> "Morphism":
        one, constant = GaussianRational(1), (0,) * obj.lg.ring.nvars
        return cls._from_terms(obj, obj, 0, {
            ((0, blk, i, i), constant): one
            for blk, rank in enumerate((obj.rank0, obj.rank1))
            for i in range(rank)
        })

    @classmethod
    def d_partial(cls, obj, index: int) -> "Morphism":
        """Entrywise partial derivative of D; the canonical null-homotopy."""
        if not 0 <= index < obj.lg.ring.nvars:
            raise IndexError(f"variable index {index} out of range")
        return cls._from_terms(obj, obj, 1, {
            (element, exps[:index] + (exps[index] - 1,) + exps[index + 1:]):
                coeff * exps[index]
            for (element, exps), coeff in obj.d_terms.items()
            if exps[index]
        })

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Morphism") -> "Morphism":
        if (
            self.source != other.source
            or self.target != other.target
            or self.parity != other.parity
        ):
            raise ShapeError("cannot add morphisms of different type")
        return Morphism._from_terms(
            self.source,
            self.target,
            self.parity,
            _collect(itertools.chain(self.terms.items(), other.terms.items())),
        )

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + other.scale(-1)

    def __neg__(self) -> "Morphism":
        return self.scale(-1)

    def scale(self, factor) -> "Morphism":
        """factor * self, for a scalar or a polynomial of the ring."""
        factor = _as_poly(self.source.lg.ring, factor)
        return Morphism._from_terms(
            self.source,
            self.target,
            self.parity,
            _collect(
                ((element, mono_mul(exps, f_exps)), coeff * f_coeff)
                for (element, exps), coeff in self.terms.items()
                for f_exps, f_coeff in factor.terms.items()
            ),
        )

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other (other: a1 -> a2, self: a2 -> a3), a sparse
        bilinear map on the terms (_composite)."""
        if other.target != self.source:
            raise ShapeError("middle objects do not match in composition")
        parity = (self.parity + other.parity) % 2
        return Morphism._from_terms(
            other.source, self.target, parity,
            _collect(_composite(self.terms, other.terms, parity)),
        )

    def defect(self) -> "Morphism":
        """d(f) = D2 o f - (-1)^{deg f} f o D1, read off the two branes'
        d_terms, D being an odd endomorphism."""
        d1, d2 = self.source, self.target
        parity, sign = 1 - self.parity, (1 if self.parity else -1)
        right = _composite(self.terms, d1.d_terms, parity)
        return Morphism._from_terms(d1, d2, parity, _collect(itertools.chain(
            _composite(d2.d_terms, self.terms, parity),
            ((element, sign * coeff) for element, coeff in right),
        )))

    def entries(self) -> dict:
        """The terms grouped per entry, {(blk, i, j): Polynomial} in sorted
        order: the entry maps basis vector j of the source module of parity
        blk to basis vector i of its target module."""
        grouped = {}
        for ((_, blk, i, j), exps), coeff in self.terms.items():
            grouped.setdefault((blk, i, j), {})[exps] = coeff
        ring = self.source.lg.ring
        return {entry: Polynomial(ring, grouped[entry]) for entry in sorted(grouped)}

    def supertrace(self) -> Polynomial:
        """str(f) for endomorphisms; zero for odd parity (no diagonal blocks)."""
        if self.source != self.target:
            raise ShapeError("supertrace needs an endomorphism")
        ring = self.source.lg.ring
        if self.parity == 1:
            return ring.zero()
        return Polynomial(
            ring,
            _collect(
                (exps, -coeff if blk else coeff)
                for ((_, blk, i, j), exps), coeff in self.terms.items()
                if i == j
            ),
        )

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.parity == other.parity
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Morphism(parity {self.parity})"


def _composite(g_terms, f_terms, parity):
    """The terms of g o f as (element, coeff) pairs, not yet summed; parity
    is that of the composite.

    An element (pf, blk, i, j) of f maps basis vector j of the source module
    blk to basis vector i of the module of parity blk + pf, and meets each
    element (pg, blk + pf, k, i) of g, giving (parity, blk, k, j) with the
    exponents added.
    """
    by_source = {}  # (source module, column) -> [(row, exps, coeff)]
    for ((_, blk, k, i), exps), coeff in g_terms.items():
        by_source.setdefault((blk, i), []).append((k, exps, coeff))
    return (
        (((parity, blk, k, j), mono_mul(f_exps, g_exps)), f_coeff * g_coeff)
        for ((pf, blk, i, j), f_exps), f_coeff in f_terms.items()
        for k, g_exps, g_coeff in by_source.get(((blk + pf) % 2, i), ())
    )


def _collect(pairs) -> dict:
    """Sum (key, value) pairs by key; the nonzero sums."""
    out = {}
    for key, value in pairs:
        acc = out.get(key)
        out[key] = value if acc is None else acc + value
    return {key: value for key, value in out.items() if value}


def _block_shapes(a1, a2, parity):
    """Per block: (nrows, ncols, target weights, source weights)."""
    if parity == 0:
        return [
            (a2.rank0, a1.rank0, a2.weights0, a1.weights0),
            (a2.rank1, a1.rank1, a2.weights1, a1.weights1),
        ]
    return [
        (a2.rank1, a1.rank0, a2.weights1, a1.weights0),
        (a2.rank0, a1.rank1, a2.weights0, a1.weights1),
    ]


def _defect_complex(a1, a2, graded) -> FreeComplex:
    """Hom(a1, a2) as a free complex on the elementary maps E = (parity, blk, i, j).

    E maps basis vector j of the source module of block blk to basis vector i
    of its target module.  d(E) = D2 o E - (-1)^parity E o D1 is read off one
    column of a block of D2 and one row of a block of D1.  The grading uses
    doubled weights, so the internal degree of x^e E is 2*wdeg(e) + wt_i - ws_j
    and d has degree deg W.
    """
    lg = a1.lg
    columns = {}  # D2 by (source module, column): [(row, entry)]
    for (blk, r, c), p in a2.D.entries().items():
        columns.setdefault((blk, c), []).append((r, p))
    rows = {}  # D1 by (target module, row): [(column, entry)]
    for (blk, r, c), p in a1.D.entries().items():
        rows.setdefault((1 - blk, r), []).append((c, p))

    def entries(label):
        parity, blk, i, j = label
        # D2 out of the target module of blk, D1 into its source module
        out = [
            ((1 - parity, blk, r, j), p)
            for r, p in columns.get(((blk + parity) % 2, i), ())
        ]
        out += [
            ((1 - parity, 1 - blk, i, c), p if parity else -p)
            for c, p in rows.get((blk, j), ())
        ]
        return out

    generators = {
        parity: [
            ((parity, blk, i, j), wt[i] - ws[j] if graded else 0)
            for blk, (nrows, ncols, wt, ws) in enumerate(
                _block_shapes(a1, a2, parity)
            )
            for i in range(nrows)
            for j in range(ncols)
        ]
        for parity in (0, 1)
    }
    weights = tuple(2 * w for w in lg.weights) if graded else None
    return FreeComplex(
        lg.ring, generators, {0: 1, 1: 0}, entries, weights, lg.weighted_degree
    )


# ---------------------------------------------------------------------------
# cohomology of the Hom complex
# ---------------------------------------------------------------------------


class _Piece:
    """One piece of the Hom complex, as FreeComplex.piece gives it: im is a
    forward pass (pivot_cols, rows) and quot an RREF.
    """

    __slots__ = ("basis", "im", "quot")

    def __init__(self, basis, im, quot):
        self.basis = basis
        self.im = im
        self.quot = quot


class MorphismClass:
    """A cohomology class: canonical coordinates in the basis of its Hom space.

    Arithmetic works on the coordinates alone.  The canonical representative
    is sum of coord * basis representative, a basis representative being a
    quotient row of its piece.  It is the Morphism with those terms, made on
    first access to representative and kept.
    """

    __slots__ = ("hom", "parity", "coords", "_representative")

    def __init__(self, hom, parity, coords):
        self.hom = hom
        self.parity = parity
        self.coords = tuple(coords)
        self._representative = None

    @property
    def representative(self) -> Morphism:
        if self._representative is None:
            hom = self.hom
            self._representative = Morphism._from_terms(
                hom.a1, hom.a2, self.parity, hom.terms_of(self.parity, self.coords)
            )
        return self._representative

    def is_zero(self) -> bool:
        return not any(self.coords)

    def scale(self, factor) -> "MorphismClass":
        factor = GaussianRational.coerce(factor)
        return MorphismClass(
            self.hom, self.parity, tuple(factor * c for c in self.coords)
        )

    def __add__(self, other: "MorphismClass") -> "MorphismClass":
        if self.hom is not other.hom or self.parity != other.parity:
            raise ShapeError("cannot add classes from different spaces")
        return MorphismClass(
            self.hom,
            self.parity,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __eq__(self, other):
        if not isinstance(other, MorphismClass):
            return NotImplemented
        return (
            self.hom is other.hom
            and self.parity == other.parity
            and self.coords == other.coords
        )

    def __repr__(self):
        return f"MorphismClass(parity {self.parity}, coords {self.coords})"


class HomCohomology:
    """Degreewise cohomology of Hom(a1, a2) with canonical representatives.

    A Hom out of a Koszul brane with a c of finite colength builds its model
    X/(c)X once (koszul_model) and keeps it in _model.  In graded mode, the
    number of classes in each degree is taken first, and only the pieces
    where it is nonzero are built, in ascending degree; each must hold that
    number, and no parity may hold more than the certified count, the
    model's (koszul_hom_dims).  With a certificate the numbers are the
    model's, up to the bound (_model_counts); when the pieces then hold the
    certified count, the classes are checked once against it (_check_model):
    their projections must be a basis of its cohomology, which makes them a
    basis of the Hom.  A certified Hom whose bound cuts off a class falls
    short of the certificate and reports stabilized False.  Without a
    certificate each degree up to the bound counts FreeComplex.dim's
    classes, its size less its ranks out and in.  Either way every unbuilt
    degree is acyclic, and class_of reads a component there, up to the
    bound, off the complex's entries alone: it is a cocycle exactly when
    they send it to zero, and then a coboundary, with zero coordinates.
    All of this fails closed, also under python -O.

    Windowed with a model, nothing is eliminated: the classes are the
    model's, lifted to cocycles (lift_classes), all in degree 0 and
    stabilized, and a cocycle's coordinates are read through its projection
    (KoszulModel.coordinates).  Any other windowed Hom is one piece per
    parity: both maps out of the window are forward-passed once each, the
    maps in cut out of them (FreeComplex.map_out), and it is stabilized
    when the window below (FreeComplex.dim) has the same dims.

    The residual test decides whether a morphism is a cocycle, with no
    chain-level defect: each piece's image and quotient together span its
    kernel (quotient() counts its rows), and FreeComplex.matrix() raises
    when the differential leaves its target piece, so a component in a
    built piece reduces to zero exactly when it is a cocycle.  Basis
    representatives are quotient rows, read as terms (terms_of);
    MorphismClass.representative wraps them in a Morphism.
    """

    def __init__(self, a1, a2, bound=None):
        if a1.lg is not a2.lg and a1.lg.key() != a2.lg.key():
            raise ValidationError("factorizations of different LG pairs")
        self.a1 = a1
        self.a2 = a2
        self.lg = a1.lg
        self.graded = hom_is_graded(a1, a2)
        if bound is None:
            bound = default_degree_bound(self.lg, a1, a2, self.graded)
        if bound < 0:
            raise ValidationError("degree bound must be non-negative")
        self.bound = bound
        self.pieces = {}
        self.layout = {0: [], 1: []}  # parity -> list of (degree, local index)
        self._where = {0: {}, 1: {}}  # parity -> {element: (degree, position)}
        self._model = koszul_model(a1, a2)
        model = self._model if self.graded else None
        self.certified = None if model is None else (model.classes(0), model.classes(1))
        self._lifts = None  # per parity, the cocycles lifted from X/(c)X
        self._build()
        self._position_of = {
            parity: {key: k for k, key in enumerate(self.layout[parity])}
            for parity in (0, 1)
        }

    # -- construction -----------------------------------------------------

    def _build(self):
        complex_ = _defect_complex(self.a1, self.a2, self.graded)
        self._entries = None  # the complex's entries, when unbuilt pieces are read
        if not self.graded and self._model is not None:  # lifted from X/(c)X
            self._entries = complex_.entries
            self._lifts = lift_classes(self._model, self.a1, self._entries)
            for parity, lifts in enumerate(self._lifts):
                self.layout[parity] = [(0, k) for k in range(len(lifts))]
            self.stabilized = True
            return
        if not self.graded:
            # both maps out of the window first: the smaller windows are cut
            # out of them
            for parity in (0, 1):
                complex_.map_out(parity, self.bound)
            for parity in (0, 1):  # the window is one piece
                self._add_piece(parity, 0, *complex_.piece(parity, self.bound))
            below = self.bound - 1
            self.stabilized = below >= 0 and all(
                complex_.dim(parity, below) == self.dim(parity) for parity in (0, 1)
            )
            return
        self._entries = complex_.entries
        counts = self._model_counts()
        if counts is None:
            counts = {
                (parity, m): count
                for m in range(complex_.min_degree, self.bound + 1)
                for parity in (0, 1)
                if (count := complex_.dim(parity, m))
            }
        for key in sorted(counts, key=lambda k: (k[1], k[0])):  # by degree
            self._add_piece(*key, *complex_.piece(*key), counts[key])
        if self._complete():
            self._check_model()
        top = (self.bound - 1, self.bound) if self.bound >= 1 else ()
        self.stabilized = (self.certified is None or self._complete()) and not any(
            m in top for parity in (0, 1) for m, _ in self.layout[parity]
        )

    def _model_counts(self) -> Optional[dict]:
        """{(parity, degree): classes} of a certified Hom up to its bound, as
        X/(c)X counts them (KoszulModel.classes_by_degree), nonzero counts
        only; None without a certificate.

        Parity p reads V_t, t being the vacuum's module plus p.  A term
        x^e E of the Hom, E = (p, blk, i, j), sits in degree 2 wdeg(e) +
        wt_i - ws_j; at the vacuum (blk and j its module and index) it
        projects to x^e times basis vector i of X_t, of degree 2 wdeg(e) +
        wt_i in X.  The projection keeps degrees, (c) being homogeneous, so
        a Hom degree is the model's less the vacuum's weight ws_j.
        """
        if self.certified is None:
            return None
        model = self._model
        module, index = model.vacuum
        shift = (self.a1.weights0, self.a1.weights1)[module][index]
        return {
            (parity, m - shift): count
            for parity in (0, 1)
            for m, count in model.classes_by_degree((module + parity) % 2).items()
            if m - shift <= self.bound
        }

    def _complete(self) -> bool:
        """True when both parities hold the certified number of classes."""
        return self.certified is not None and all(
            self.dim(parity) == self.certified[parity] for parity in (0, 1)
        )

    def _check_model(self):
        """Raise InternalCheckError unless the classes are a basis of the
        cohomology of the model X/(c)X (koszul_hom_dims).

        For each parity, each basis representative is projected into V_t, t
        being the vacuum's module plus the parity (KoszulModel.project).
        The projections must be as many as the model's own count of classes
        at V_t, be sent to zero by D_X mod (c), and be independent modulo
        its image in V_t: the forward pass of the pivot columns of the map
        into V_t, with the projections below them, must keep every row.  The
        projection induces an isomorphism on cohomology, so then the classes
        are a basis of the Hom, and no unbuilt piece holds a class.
        """
        model = self._model
        columns = [block.transpose().rows for block in model.blocks]
        for parity in (0, 1):
            t = (model.vacuum[0] + parity) % 2
            name = "even" if parity == 0 else "odd"
            if self.dim(parity) != model.classes(t):
                raise InternalCheckError(
                    f"the {self.dim(parity)} {name} classes are not the "
                    f"{model.classes(t)} of the model X/(c)X"
                )
            projections = []
            for m, local in self.layout[parity]:
                piece = self.pieces[(parity, m)]
                row = piece.quot[1][local]
                projections.append(
                    model.project((piece.basis[col], c) for col, c in row.items())
                )
            if not projections:
                continue
            block = model.blocks[t]
            if any(block.apply(vector) for vector in projections):
                raise InternalCheckError(
                    f"an {name} class projects to no cocycle of X/(c)X"
                )
            spanning = [columns[1 - t][col] for col in model.echelons[1 - t][0]]
            spanning += projections
            rank = SparseMatrix(len(spanning), block.ncols, spanning).rank()
            if rank != len(spanning):
                raise InternalCheckError(
                    f"the {name} classes project to classes of X/(c)X that "
                    "are not independent"
                )

    def _add_piece(self, parity, m, basis, image, quot, expected=None):
        """Keep a piece; InternalCheckError when it brings a parity above its
        certified count, or holds other than the expected number of classes
        when one is given: the model's count at its degree when certified,
        else its size less its ranks out and in."""
        name = "even" if parity == 0 else "odd"
        found = self.dim(parity) + len(quot[1])
        if self.certified is not None and found > self.certified[parity]:
            raise InternalCheckError(
                f"piece ({parity}, {m}) brings the {name} classes to {found}, "
                f"above the {self.certified[parity]} certified by koszul_hom_dims"
            )
        if expected is not None and len(quot[1]) != expected:
            source = "X/(c)X counts" if self.certified else "the ranks out and in leave"
            raise InternalCheckError(
                f"piece ({parity}, {m}) holds {len(quot[1])} {name} classes, "
                f"not the {expected} that {source} in its degree"
            )
        self.pieces[(parity, m)] = _Piece(basis, image, quot)
        self.layout[parity].extend((m, local) for local in range(len(quot[1])))
        where = self._where[parity]
        for position, element in enumerate(basis):
            where[element] = (m, position)

    # -- queries ------------------------------------------------------------

    def dim(self, parity: int) -> int:
        return len(self.layout[parity % 2])

    @property
    def total_dim(self) -> int:
        return self.dim(0) + self.dim(1)

    def dims_by_degree(self, parity: int) -> dict:
        out = {}
        for m, _ in self.layout[parity % 2]:
            out[m] = out.get(m, 0) + 1
        return out

    def basis_classes(self, parity: int):
        parity %= 2
        size = len(self.layout[parity])
        out = []
        for position in range(size):
            coords = [GaussianRational(0)] * size
            coords[position] = GaussianRational(1)
            out.append(MorphismClass(self, parity, coords))
        return out

    def zero_class(self, parity: int) -> MorphismClass:
        parity %= 2
        return MorphismClass(self, parity, [GaussianRational(0)] * self.dim(parity))

    def terms_of(self, parity: int, coords) -> dict:
        """Terms of sum coord * basis representative, {element: coeff}."""
        terms = {}
        for position, value in enumerate(coords):
            if value and self._lifts is not None:
                terms = vec_axpy(terms, value, self._lifts[parity][position])
            elif value:
                m, local = self.layout[parity][position]
                piece = self.pieces[(parity, m)]
                row = piece.quot[1][local]
                terms = vec_axpy(
                    terms, value, {piece.basis[col]: c for col, c in row.items()}
                )
        return terms

    def class_of(self, morphism: Morphism) -> MorphismClass:
        """Canonical class of a cocycle; raises NonCocycleError otherwise.

        A term outside the computed window raises ClassBoundError, unless the
        morphism is not a cocycle at all: only then is its defect computed.
        """
        if morphism.source != self.a1 or morphism.target != self.a2:
            raise ValidationError("morphism does not belong to this Hom space")
        try:
            cls = self._reduce(morphism.parity, morphism.terms)
        except ClassBoundError:
            if morphism.defect().is_zero():
                raise
            cls = None
        if cls is None:
            raise NonCocycleError(
                "the defect differential of the representative is nonzero"
            )
        return cls

    def _split(self, parity, terms):
        """Nonzero terms {element: coeff} of this Hom, split by degree.

        A term of a built piece is looked up in _where, and its component is
        {position in the piece's basis: coeff}.  In a graded Hom, a term of
        an unbuilt degree up to the bound keeps its element: that component
        is {element: coeff}, and no piece is built for it.  A term outside
        the window raises ClassBoundError.
        """
        where = self._where[parity]
        components = {}
        for element, coeff in terms.items():
            found = where.get(element)
            if found is None:
                m, key = self._unbuilt_degree(parity, element), element
            else:
                m, key = found
            components.setdefault(m, {})[key] = coeff
        return components

    def _unbuilt_degree(self, parity, element) -> int:
        """The degree of a term of no built piece, whose differential is read:
        the Hom is graded and the term lies at most at the bound.  Otherwise
        ClassBoundError."""
        m = 0  # the windowed space is one piece
        if self.graded:
            (_, blk, i, j), exps = element
            _, _, wt, ws = _block_shapes(self.a1, self.a2, parity)[blk]
            m = 2 * mono_weighted_degree(exps, self.lg.weights) + wt[i] - ws[j]
        if self._entries is None or m > self.bound:
            raise ClassBoundError(
                f"morphism term in degree {m} lies outside the "
                f"computed window (bound {self.bound}); "
                "recompute with a larger bound"
            )
        return m

    def _reduce(self, parity, terms) -> Optional[MorphismClass]:
        """The class of nonzero terms, or None when they are no cocycle.

        Lifted, they are a cocycle when complex.differential sends them to
        zero, with their projection's coordinates.  Otherwise they are split
        by degree.  A component in a built piece is reduced modulo its image,
        then its quotient; the quotient coordinates are the class's, and a
        nonzero residual means it lies outside the kernel.  A component in
        an unbuilt degree is a cocycle when its differential is zero, and
        then adds nothing: no class lies there, by _check_model or the ranks.
        """
        coords = [GaussianRational(0)] * len(self.layout[parity])
        if self._lifts is not None:
            if differential(self._entries, terms):
                return None
            for local, value in self._model.coordinates(parity, terms).items():
                coords[local] = value
            return MorphismClass(self, parity, coords)
        position_of = self._position_of[parity]
        for m, vector in self._split(parity, terms).items():
            piece = self.pieces.get((parity, m))
            if piece is None:
                if differential(self._entries, vector):
                    return None
                continue
            residual, _ = echelon_reduce(*piece.im, vector)
            residual, local_coords = echelon_reduce(*piece.quot, residual)
            if residual:
                return None
            for local, value in local_coords.items():
                coords[position_of[(m, local)]] = value
        return MorphismClass(self, parity, coords)


def hom_is_graded(a1, a2) -> bool:
    """Whether Hom(a1, a2) is built graded by weighted degree; otherwise it
    is one window of total degree up to its bound."""
    return a1.lg.weights is not None and a1.graded and a2.graded


def default_degree_bound(lg, a1, a2, graded) -> int:
    """Staircase top + max entry degree + slack, in the active degree units."""
    entry_max = max(
        (
            2 * mono_weighted_degree(exps, lg.weights) if graded else mono_degree(exps)
            for a in (a1, a2)
            for _, exps in a.d_terms
        ),
        default=0,
    )
    if not lg.jacobi_basis.is_zero_dimensional():
        raise ValidationError(
            "the critical set is not finite; supply an explicit degree bound"
        )
    staircase = lg.jacobi_algebra.basis
    if graded:
        top = max(
            (2 * mono_weighted_degree(e, lg.weights) for e in staircase),
            default=0,
        )
        return top + entry_max + 4
    top = max((sum(e) for e in staircase), default=0)
    return top + entry_max + 2


def hom_cohomology(
    a1: MatrixFactorization,
    a2: MatrixFactorization,
    degree_bound: Optional[int] = None,
) -> HomCohomology:
    """Parity- and degree-graded cohomology of the defect complex."""
    return HomCohomology(a1, a2, degree_bound)


def compose_classes(
    g: MorphismClass, f: MorphismClass, target_hom: HomCohomology
) -> MorphismClass:
    """Composition on cohomology: class of g o f inside Hom(f.hom.a1, g.hom.a2).

    The representatives' composite, Morphism.compose on their terms, reduced
    in the target Hom.  The composite of two cocycles is a cocycle (Leibniz),
    so a nonzero residual is an internal fault.
    """
    if f.hom.a2 != g.hom.a1:
        raise ValidationError("middle objects do not match")
    if target_hom.a1 != f.hom.a1 or target_hom.a2 != g.hom.a2:
        raise ValidationError("target Hom space does not match the composite")
    chain = g.representative.compose(f.representative)
    composite = target_hom._reduce(chain.parity, chain.terms)
    if composite is None:
        raise InternalCheckError("the composite of two cocycles is not a cocycle")
    return composite
