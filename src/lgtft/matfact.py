"""Free Z2-graded factorizations of W and their morphism cohomology.

Objects are pairs of polynomial matrix blocks with D^2 = W*Id verified
exactly.  Morphism complexes carry the defect differential
d(f) = D2 o f - (-1)^{deg f} f o D1; cohomology is computed degreewise in the
internal (weighted) grading when both objects are gradable, and through a
total-degree window with a stabilization flag otherwise.

Projective modules are realized as free modules throughout: over C^d every
finitely generated projective module is free, so nothing is lost at this
scale, but it does specialize the general definition.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import (
    ClassBoundError,
    FactorizationError,
    NonCocycleError,
    ShapeError,
    ValidationError,
)
from .jacobi import jacobi_groebner
from .lgpair import LGPair
from .linalg import EchelonBasis, SparseMatrix
from .poly import (
    Polynomial,
    mono_weighted_degree,
    monomials_of_weighted_degree,
)
from .polymatrix import PolyMatrix
from .scalars import GaussianRational


class MatrixFactorization:
    """Free supermodule P0 + P1 with odd differential squaring to W."""

    __slots__ = ("lg", "d01", "d10", "weights0", "weights1", "_key")

    def __init__(self, lg, d01, d10, weights0=None, weights1=None):
        self.lg = lg
        self.d01 = d01
        self.d10 = d10
        self.weights0 = tuple(weights0) if weights0 is not None else None
        self.weights1 = tuple(weights1) if weights1 is not None else None
        self._key = None

    @property
    def rank0(self) -> int:
        return self.d01.ncols

    @property
    def rank1(self) -> int:
        return self.d01.nrows

    @property
    def graded(self) -> bool:
        return self.weights0 is not None and self.weights1 is not None

    def is_zero_object(self) -> bool:
        return self.rank0 == 0 and self.rank1 == 0

    def key(self) -> tuple:
        """Printed LG pair and blocks; built once, as the blocks are immutable."""
        if self._key is None:
            self._key = (
                self.lg.key(),
                tuple(tuple(row) for row in self.d01.to_strings()),
                tuple(tuple(row) for row in self.d10.to_strings()),
            )
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
    _check_squares(lg, d01, d10)
    rank0, rank1 = d01.ncols, d01.nrows
    if weights0 is not None or weights1 is not None:
        if weights0 is None or weights1 is None:
            raise ValidationError("give weights for both parities or neither")
        if len(weights0) != rank0 or len(weights1) != rank1:
            raise ValidationError("one weight per basis vector required")
        if not _weights_consistent(lg, d01, d10, tuple(weights0), tuple(weights1)):
            raise ValidationError(
                "the differential is not homogeneous for the given weights"
            )
        return MatrixFactorization(lg, d01, d10, tuple(weights0), tuple(weights1))
    inferred = _infer_weights(lg, d01, d10)
    if inferred is not None:
        return MatrixFactorization(lg, d01, d10, inferred[0], inferred[1])
    return MatrixFactorization(lg, d01, d10)


def _check_squares(lg: LGPair, d01: PolyMatrix, d10: PolyMatrix):
    for left, right, rank, tag in (
        (d10, d01, d01.ncols, "even"),
        (d01, d10, d01.nrows, "odd"),
    ):
        product = left.matmul(right)
        expected = PolyMatrix.identity(lg.ring, rank, lg.w)
        for i in range(rank):
            for j in range(rank):
                if product[i, j] != expected[i, j]:
                    raise FactorizationError(
                        f"D^2 differs from W*Id on the {tag} summand at entry "
                        f"({i + 1},{j + 1}): got {product[i, j]}, "
                        f"expected {expected[i, j]}"
                    )


def _doubled_degree(lg: LGPair, p: Polynomial) -> Optional[int]:
    degree = p.homogeneous_weighted_degree(lg.weights)
    return None if degree is None else 2 * degree


def _weights_consistent(lg, d01, d10, weights0, weights1) -> bool:
    if lg.weights is None:
        return False
    h = lg.weighted_degree
    for matrix, wt_target, wt_source in (
        (d01, weights1, weights0),
        (d10, weights0, weights1),
    ):
        for i in range(matrix.nrows):
            for j in range(matrix.ncols):
                p = matrix[i, j]
                if p.is_zero():
                    continue
                degree = _doubled_degree(lg, p)
                if degree is None:
                    return False
                if degree + wt_target[i] - wt_source[j] != h:
                    return False
    return True


def _infer_weights(lg, d01, d10):
    """Weights making D homogeneous, or None; components anchored at zero."""
    if lg.weights is None:
        return None
    h = lg.weighted_degree
    rank0, rank1 = d01.ncols, d01.nrows
    # nodes: (0, j) even basis, (1, i) odd basis
    edges = {}

    def add_edge(a, b, delta):
        edges.setdefault(a, []).append((b, delta))
        edges.setdefault(b, []).append((a, -delta))

    for i in range(rank1):
        for j in range(rank0):
            p = d01[i, j]
            if p.is_zero():
                continue
            degree = _doubled_degree(lg, p)
            if degree is None:
                return None
            # wt1[i] = wt0[j] + h - degree
            add_edge((0, j), (1, i), h - degree)
    for i in range(rank0):
        for j in range(rank1):
            p = d10[i, j]
            if p.is_zero():
                continue
            degree = _doubled_degree(lg, p)
            if degree is None:
                return None
            add_edge((1, j), (0, i), h - degree)
    assignment = {}
    for start in [(0, j) for j in range(rank0)] + [(1, i) for i in range(rank1)]:
        if start in assignment:
            continue
        assignment[start] = 0
        queue = [start]
        while queue:
            node = queue.pop()
            base = assignment[node]
            for neighbor, delta in edges.get(node, ()):
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

    Standard generator of test objects; the identity sum(a*b) = W is checked
    first and D^2 = W*Id is still verified on the assembled blocks.
    """
    ring = lg.ring
    parsed = []
    for a, b in pairs:
        a = ring.parse(a) if isinstance(a, str) else a
        b = ring.parse(b) if isinstance(b, str) else b
        parsed.append((a, b))
    if not parsed:
        raise ValidationError("at least one factor pair is required")
    total = ring.zero()
    for a, b in parsed:
        total = total + a * b
    if total != lg.w:
        raise FactorizationError(
            f"sum of products is {total}, not W = {lg.w}"
        )
    a0, b0 = parsed[0]
    d01 = PolyMatrix(ring, [[a0]])
    d10 = PolyMatrix(ring, [[b0]])
    for a, b in parsed[1:]:
        r0, r1 = d01.ncols, d01.nrows
        new01 = _block_matrix(
            ring,
            [
                [d01, PolyMatrix.identity(ring, r1, -b)],
                [PolyMatrix.identity(ring, r0, a), d10],
            ],
        )
        new10 = _block_matrix(
            ring,
            [
                [d10, PolyMatrix.identity(ring, r0, b)],
                [PolyMatrix.identity(ring, r1, -a), d01],
            ],
        )
        d01, d10 = new01, new10
    return make_factorization(lg, d01, d10)


def _block_matrix(ring, blocks):
    rows = []
    for block_row in blocks:
        height = block_row[0].nrows
        for k in range(height):
            row = []
            for block in block_row:
                row.extend(block.entries[k])
            rows.append(row)
    return PolyMatrix(ring, rows)


# ---------------------------------------------------------------------------
# morphisms and the defect differential
# ---------------------------------------------------------------------------


class Morphism:
    """Homogeneous-parity module map between factorizations.

    blk0 has source P1^0, blk1 has source P1^1; the target parities are
    (parity, 1-parity) shifted by the morphism parity.
    """

    __slots__ = ("source", "target", "parity", "blk0", "blk1")

    def __init__(self, source, target, parity, blk0, blk1):
        self.source = source
        self.target = target
        self.parity = parity % 2
        expected0 = (
            (target.rank0, source.rank0)
            if self.parity == 0
            else (target.rank1, source.rank0)
        )
        expected1 = (
            (target.rank1, source.rank1)
            if self.parity == 0
            else (target.rank0, source.rank1)
        )
        if (blk0.nrows, blk0.ncols) != expected0 or (
            blk1.nrows,
            blk1.ncols,
        ) != expected1:
            raise ShapeError("morphism blocks have the wrong shape")
        self.blk0 = blk0
        self.blk1 = blk1

    @classmethod
    def zero(cls, source, target, parity) -> "Morphism":
        ring = source.lg.ring
        if parity % 2 == 0:
            blk0 = PolyMatrix.zero(ring, target.rank0, source.rank0)
            blk1 = PolyMatrix.zero(ring, target.rank1, source.rank1)
        else:
            blk0 = PolyMatrix.zero(ring, target.rank1, source.rank0)
            blk1 = PolyMatrix.zero(ring, target.rank0, source.rank1)
        return cls(source, target, parity, blk0, blk1)

    @classmethod
    def identity(cls, obj) -> "Morphism":
        ring = obj.lg.ring
        return cls(
            obj,
            obj,
            0,
            PolyMatrix.identity(ring, obj.rank0),
            PolyMatrix.identity(ring, obj.rank1),
        )

    @classmethod
    def differential_of(cls, obj) -> "Morphism":
        """The structure map D itself, as an odd endomorphism."""
        return cls(obj, obj, 1, obj.d01, obj.d10)

    @classmethod
    def d_partial(cls, obj, index: int) -> "Morphism":
        """Entrywise partial derivative of D; the canonical null-homotopy."""
        return cls(
            obj,
            obj,
            1,
            obj.d01.partial_derivative(index),
            obj.d10.partial_derivative(index),
        )

    def is_zero(self) -> bool:
        return self.blk0.is_zero() and self.blk1.is_zero()

    def __add__(self, other: "Morphism") -> "Morphism":
        if (
            self.source != other.source
            or self.target != other.target
            or self.parity != other.parity
        ):
            raise ShapeError("cannot add morphisms of different type")
        return Morphism(
            self.source,
            self.target,
            self.parity,
            self.blk0 + other.blk0,
            self.blk1 + other.blk1,
        )

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + other.scale(-1)

    def __neg__(self) -> "Morphism":
        return self.scale(-1)

    def scale(self, factor) -> "Morphism":
        return Morphism(
            self.source,
            self.target,
            self.parity,
            self.blk0.scale(factor),
            self.blk1.scale(factor),
        )

    def compose(self, other: "Morphism") -> "Morphism":
        """self after other (other: a1 -> a2, self: a2 -> a3)."""
        if other.target != self.source:
            raise ShapeError("middle objects do not match in composition")
        left0 = self.blk0 if other.parity == 0 else self.blk1
        left1 = self.blk1 if other.parity == 0 else self.blk0
        return Morphism(
            other.source,
            self.target,
            self.parity + other.parity,
            left0.matmul(other.blk0),
            left1.matmul(other.blk1),
        )

    def defect(self) -> "Morphism":
        """d(f) = D2 o f - (-1)^{deg f} f o D1."""
        d1, d2 = self.source, self.target
        if self.parity == 0:
            blk0 = d2.d01.matmul(self.blk0) - self.blk1.matmul(d1.d01)
            blk1 = d2.d10.matmul(self.blk1) - self.blk0.matmul(d1.d10)
        else:
            blk0 = d2.d10.matmul(self.blk0) + self.blk1.matmul(d1.d01)
            blk1 = d2.d01.matmul(self.blk1) + self.blk0.matmul(d1.d10)
        return Morphism(self.source, self.target, self.parity + 1, blk0, blk1)

    def poly_scale(self, p: Polynomial) -> "Morphism":
        return Morphism(
            self.source,
            self.target,
            self.parity,
            self.blk0.scale(p),
            self.blk1.scale(p),
        )

    def supertrace(self) -> Polynomial:
        """str(f) for endomorphisms; zero for odd parity (no diagonal blocks)."""
        if self.source != self.target:
            raise ShapeError("supertrace needs an endomorphism")
        ring = self.source.lg.ring
        if self.parity == 1:
            return ring.zero()
        return self.blk0.trace() - self.blk1.trace()

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.parity == other.parity
            and self.blk0 == other.blk0
            and self.blk1 == other.blk1
        )

    def __repr__(self):
        return f"Morphism(parity {self.parity})"


class HomComplex:
    """The Z2-graded module of maps between two factorizations, with d."""

    __slots__ = ("a1", "a2")

    def __init__(self, a1: MatrixFactorization, a2: MatrixFactorization):
        if a1.lg.key() != a2.lg.key():
            raise ValidationError("factorizations of different LG pairs")
        self.a1 = a1
        self.a2 = a2
        self._verify_square_zero()

    @property
    def even_rank(self) -> int:
        return self.a2.rank0 * self.a1.rank0 + self.a2.rank1 * self.a1.rank1

    @property
    def odd_rank(self) -> int:
        return self.a2.rank1 * self.a1.rank0 + self.a2.rank0 * self.a1.rank1

    def defect(self, f: Morphism) -> Morphism:
        return f.defect()

    def _verify_square_zero(self):
        for parity in (0, 1):
            for element in _elementary_morphisms(self.a1, self.a2, parity):
                assert element.defect().defect().is_zero(), "d^2 is nonzero"


def _elementary_morphisms(a1, a2, parity):
    ring = a1.lg.ring
    shapes = _block_shapes(a1, a2, parity)
    for blk, (nrows, ncols, _, _) in enumerate(shapes):
        for i in range(nrows):
            for j in range(ncols):
                blocks = [
                    PolyMatrix.zero(ring, *shapes[0][:2]),
                    PolyMatrix.zero(ring, *shapes[1][:2]),
                ]
                entries = [list(row) for row in blocks[blk].entries]
                entries[i][j] = ring.one()
                blocks[blk] = PolyMatrix(ring, entries)
                yield Morphism(a1, a2, parity, blocks[0], blocks[1])


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


def hom_complex(a1: MatrixFactorization, a2: MatrixFactorization) -> HomComplex:
    """Defect-differential complex; d^2 = 0 is asserted on a module basis."""
    return HomComplex(a1, a2)


# ---------------------------------------------------------------------------
# cohomology of the Hom complex
# ---------------------------------------------------------------------------


class _Piece:
    __slots__ = ("basis", "index", "im", "quot", "reps")

    def __init__(self, basis):
        self.basis = basis
        self.index = {element: k for k, element in enumerate(basis)}
        self.im = EchelonBasis()
        self.quot = EchelonBasis()
        self.reps = []


class MorphismClass:
    """A cohomology class: canonical coordinates in the basis of its Hom space.

    Arithmetic works on the coordinates alone.  The canonical representative,
    sum of coord * basis representative, is built on first access and kept.
    """

    __slots__ = ("hom", "parity", "coords", "_representative")

    def __init__(self, hom, parity, coords, representative=None):
        self.hom = hom
        self.parity = parity
        self.coords = tuple(coords)
        self._representative = representative

    @property
    def representative(self) -> Morphism:
        if self._representative is None:
            self._representative = self.hom.representative_of(
                self.parity, self.coords
            )
        return self._representative

    @property
    def source(self):
        return self.hom.a1

    @property
    def target(self):
        return self.hom.a2

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
    """Degreewise cohomology of Hom(a1, a2) with canonical representatives."""

    def __init__(self, a1, a2, bound=None, groebner=None):
        if a1.lg.key() != a2.lg.key():
            raise ValidationError("factorizations of different LG pairs")
        self.a1 = a1
        self.a2 = a2
        self.lg = a1.lg
        self.graded = (
            self.lg.weights is not None and a1.graded and a2.graded
        )
        if bound is None:
            bound = default_degree_bound(self.lg, a1, a2, self.graded, groebner)
        if bound < 0:
            raise ValidationError("degree bound must be non-negative")
        self.bound = bound
        self.shift = self.lg.weighted_degree if self.graded else None
        self.pieces = {}
        self.layout = {0: [], 1: []}  # parity -> list of (degree, local index)
        self.stabilized = True
        hom_complex(a1, a2)  # runs the d^2 = 0 assertions
        if self.graded:
            self._build_graded()
        else:
            self._build_windowed()

    # -- construction -----------------------------------------------------

    def _enumerate_basis(self, parity, degree):
        basis = []
        shapes = _block_shapes(self.a1, self.a2, parity)
        for blk, (nrows, ncols, wt, ws) in enumerate(shapes):
            for i in range(nrows):
                for j in range(ncols):
                    remaining = degree - (wt[i] - ws[j])
                    if remaining < 0 or remaining % 2:
                        continue
                    for exps in monomials_of_weighted_degree(
                        self.lg.weights, remaining // 2
                    ):
                        basis.append((blk, i, j, exps))
        return basis

    def _min_degree(self):
        offsets = [0]
        for parity in (0, 1):
            for nrows, ncols, wt, ws in _block_shapes(self.a1, self.a2, parity):
                for i in range(nrows):
                    for j in range(ncols):
                        offsets.append(wt[i] - ws[j])
        return min(offsets)

    def _element_from_basis(self, parity, element, coeff=1):
        blk, i, j, exps = element
        ring = self.lg.ring
        shapes = _block_shapes(self.a1, self.a2, parity)
        blocks = [
            PolyMatrix.zero(ring, *shapes[0][:2]),
            PolyMatrix.zero(ring, *shapes[1][:2]),
        ]
        entries = [list(row) for row in blocks[blk].entries]
        entries[i][j] = ring.monomial(exps, coeff)
        blocks[blk] = PolyMatrix(ring, entries)
        return Morphism(self.a1, self.a2, parity, blocks[0], blocks[1])

    def _vectorize(self, morphism, index, strict=True):
        vector = {}
        blocks = (morphism.blk0, morphism.blk1)
        for blk, matrix in enumerate(blocks):
            for i in range(matrix.nrows):
                for j in range(matrix.ncols):
                    p = matrix[i, j]
                    for exps, coeff in p.terms.items():
                        key = (blk, i, j, exps)
                        position = index.get(key)
                        if position is None:
                            if strict:
                                raise ClassBoundError(
                                    "morphism term outside the computed degree "
                                    "window; recompute with a larger bound"
                                )
                            continue
                        acc = vector.get(position)
                        total = coeff if acc is None else acc + coeff
                        if total:
                            vector[position] = total
                        elif position in vector:
                            del vector[position]
        return vector

    def _differential_matrix(self, parity, source_basis, target_index):
        matrix = SparseMatrix(len(target_index), len(source_basis))
        for col, element in enumerate(source_basis):
            image = self._element_from_basis(parity, element).defect()
            vector = self._vectorize(image, target_index)
            for row, value in vector.items():
                matrix.set(row, col, value)
        return matrix

    def _build_graded(self):
        degrees = range(self._min_degree(), self.bound + 1)
        bases = {}
        matrices = {}

        def basis_of(parity, m):
            key = (parity, m)
            if key not in bases:
                bases[key] = self._enumerate_basis(parity, m)
            return bases[key]

        def matrix_of(parity, m):
            # d out of (parity, m) is also the map into (1 - parity, m + shift):
            # built on its first use and dropped after its second
            key = (parity, m)
            if key in matrices:
                return matrices.pop(key)
            target_basis = basis_of(1 - parity, m + self.shift)
            target_index = {e: k for k, e in enumerate(target_basis)}
            matrix = self._differential_matrix(
                parity, basis_of(parity, m), target_index
            )
            matrices[key] = matrix
            return matrix

        for m in degrees:
            for parity in (0, 1):
                basis = basis_of(parity, m)
                piece = _Piece(basis)
                self.pieces[(parity, m)] = piece
                if not basis:
                    continue
                kernel = matrix_of(parity, m).nullspace()
                if basis_of(1 - parity, m - self.shift):
                    incoming = matrix_of(1 - parity, m - self.shift)
                    for column in incoming.transpose().rows:
                        piece.im.insert(column)
                for vector in kernel:
                    piece.quot.insert(piece.im.reduce(vector))
                piece.reps = [
                    self._morphism_from_vector(parity, piece.basis, row)
                    for row in piece.quot.rows
                ]
                for local in range(len(piece.quot.rows)):
                    self.layout[parity].append((m, local))
        top = [m for m in degrees][-2:] if self.bound >= 1 else []
        for parity in (0, 1):
            for m, _ in self.layout[parity]:
                if m in top:
                    self.stabilized = False

    def _build_windowed(self):
        weights_one = (1,) * self.lg.dimension
        spread = max(
            1,
            self.a1.d01.max_total_degree(),
            self.a1.d10.max_total_degree(),
            self.a2.d01.max_total_degree(),
            self.a2.d10.max_total_degree(),
        )
        self._window_dims_history = {}

        def window_basis(parity, limit):
            basis = []
            shapes = _block_shapes(self.a1, self.a2, parity)
            for blk, (nrows, ncols, _, _) in enumerate(shapes):
                for i in range(nrows):
                    for j in range(ncols):
                        for degree in range(limit + 1):
                            for exps in monomials_of_weighted_degree(
                                weights_one, degree
                            ):
                                basis.append((blk, i, j, exps))
            return basis

        for window in (self.bound - 1, self.bound):
            if window < 0:
                continue
            dims = {}
            for parity in (0, 1):
                basis = window_basis(parity, window)
                if not basis:
                    dims[parity] = 0
                    if window == self.bound:
                        self.pieces[(parity, 0)] = _Piece(basis)
                    continue
                target_basis = window_basis(1 - parity, window + spread)
                target_index = {e: k for k, e in enumerate(target_basis)}
                matrix = self._differential_matrix(parity, basis, target_index)
                kernel = matrix.nullspace()
                piece = _Piece(basis)
                if window - spread >= 0:
                    source_below = window_basis(1 - parity, window - spread)
                    incoming = self._differential_matrix(
                        1 - parity, source_below, piece.index
                    )
                    for column in incoming.transpose().rows:
                        piece.im.insert(column)
                for vector in kernel:
                    piece.quot.insert(piece.im.reduce(vector))
                dims[parity] = len(piece.quot.rows)
                if window == self.bound:
                    piece.reps = [
                        self._morphism_from_vector(parity, piece.basis, row)
                        for row in piece.quot.rows
                    ]
                    self.pieces[(parity, 0)] = piece
                    for local in range(len(piece.quot.rows)):
                        self.layout[parity].append((0, local))
            self._window_dims_history[window] = dims
        history = self._window_dims_history
        self.stabilized = (
            len(history) == 2
            and history[self.bound] == history[self.bound - 1]
        )

    def _morphism_from_vector(self, parity, basis, vector):
        total = Morphism.zero(self.a1, self.a2, parity)
        for position, coeff in sorted(vector.items()):
            total = total + self._element_from_basis(
                parity, basis[position], coeff
            )
        return total

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
        out = []
        for position, (m, local) in enumerate(self.layout[parity]):
            coords = [GaussianRational(0)] * len(self.layout[parity])
            coords[position] = GaussianRational(1)
            rep = self.pieces[(parity, m)].reps[local]
            out.append(MorphismClass(self, parity, coords, rep))
        return out

    def zero_class(self, parity: int) -> MorphismClass:
        parity %= 2
        return MorphismClass(self, parity, [GaussianRational(0)] * self.dim(parity))

    def representative_of(self, parity: int, coords) -> Morphism:
        """Canonical representative: sum of coord * basis representative."""
        total = Morphism.zero(self.a1, self.a2, parity)
        for position, value in enumerate(coords):
            if value:
                m, local = self.layout[parity][position]
                total = total + self.pieces[(parity, m)].reps[local].scale(value)
        return total

    def class_of(self, morphism: Morphism) -> MorphismClass:
        """Canonical class of a cocycle; raises NonCocycleError otherwise."""
        if morphism.source != self.a1 or morphism.target != self.a2:
            raise ValidationError("morphism does not belong to this Hom space")
        if not morphism.defect().is_zero():
            raise NonCocycleError(
                "the defect differential of the representative is nonzero"
            )
        parity = morphism.parity
        components = self._degree_components(morphism)
        coords = [GaussianRational(0)] * len(self.layout[parity])
        position_of = {
            key: position for position, key in enumerate(self.layout[parity])
        }
        for m, vector in components.items():
            piece = self.pieces.get((parity, m))
            if piece is None:
                raise ClassBoundError(
                    f"class has a component in degree {m}, beyond the bound "
                    f"{self.bound}; recompute with a larger bound"
                )
            residual = piece.im.reduce(vector)
            residual, local_coords = piece.quot.reduce_with_coords(residual)
            assert not residual, "cocycle escaped kernel + image decomposition"
            for local, value in enumerate(local_coords):
                if value:
                    coords[position_of[(m, local)]] = value
        return MorphismClass(self, parity, coords)

    def _degree_components(self, morphism):
        parity = morphism.parity
        if not self.graded:
            piece = self.pieces[(parity, 0)]
            vector = self._vectorize(morphism, piece.index)
            return {0: vector} if vector else {}
        shapes = _block_shapes(self.a1, self.a2, parity)
        components = {}
        blocks = (morphism.blk0, morphism.blk1)
        for blk, matrix in enumerate(blocks):
            _, _, wt, ws = shapes[blk]
            for i in range(matrix.nrows):
                for j in range(matrix.ncols):
                    p = matrix[i, j]
                    for exps, coeff in p.terms.items():
                        degree = 2 * mono_weighted_degree(
                            exps, self.lg.weights
                        ) + wt[i] - ws[j]
                        bucket = components.setdefault(degree, {})
                        piece = self.pieces.get((parity, degree))
                        if piece is None:
                            raise ClassBoundError(
                                f"class has a component in degree {degree}, "
                                f"beyond the bound {self.bound}; recompute "
                                "with a larger bound"
                            )
                        position = piece.index[(blk, i, j, exps)]
                        acc = bucket.get(position)
                        total = coeff if acc is None else acc + coeff
                        if total:
                            bucket[position] = total
                        elif position in bucket:
                            del bucket[position]
        return {m: v for m, v in components.items() if v}


def default_degree_bound(lg, a1, a2, graded, groebner=None) -> int:
    """Staircase top + max entry degree + slack, in the active degree units.

    groebner is the Jacobi ideal's basis when the caller already has it.
    """
    entry_max = 0
    for matrix in (a1.d01, a1.d10, a2.d01, a2.d10):
        for row in matrix.entries:
            for p in row:
                if p.is_zero():
                    continue
                if graded:
                    entry_max = max(
                        entry_max, 2 * p.weighted_degree(lg.weights)
                    )
                else:
                    entry_max = max(entry_max, p.total_degree())
    gb = groebner if groebner is not None else jacobi_groebner(lg)
    if not gb.is_zero_dimensional():
        raise ValidationError(
            "the critical set is not finite; supply an explicit degree bound"
        )
    staircase = gb.standard_monomials()
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
    groebner=None,
) -> HomCohomology:
    """Parity- and degree-graded cohomology of the defect complex.

    groebner, the Jacobi ideal's basis, saves recomputing it for the
    default degree bound.
    """
    return HomCohomology(a1, a2, degree_bound, groebner)


def compose_classes(
    g: MorphismClass, f: MorphismClass, target_hom: HomCohomology
) -> MorphismClass:
    """Composition on cohomology: class of g o f inside Hom(f.source, g.target)."""
    if f.hom.a2 != g.hom.a1:
        raise ValidationError("middle objects do not match")
    if target_hom.a1 != f.hom.a1 or target_hom.a2 != g.hom.a2:
        raise ValidationError("target Hom space does not match the composite")
    return target_hom.class_of(g.representative.compose(f.representative))
