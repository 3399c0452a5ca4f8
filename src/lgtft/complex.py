"""Complexes of free graded modules over the polynomial ring, and their cohomology.

A complex is given by its generators and the differential on them.  Each
homological index has a list of generators (label, offset); a label names one
generator of the whole complex, and x^e times that generator sits in internal
degree offset + (weighted degree of e).  The differential of a generator is a
sparse list of (target label, Polynomial) entries; it is linear over the
polynomial ring, so d(x^e g) is x^e d(g).

A piece is finite dimensional.  With weights it is the span of the x^e g of
one index in one internal degree; without weights (no grading is known) it
is the span of the x^e g of one index with total degree of e at most a
window.  Either way its basis elements are (label, e), generator-outer and
monomial-inner, and the differential maps the piece (index, n) into the
piece (successor index, n + step).  step is the degree of the differential
in the graded case and the largest total degree of an entry in the windowed
case, so a window never loses part of an image.

The monomials of each degree are listed once per complex, with their
positions; a window's list concatenates those of each total degree up to
it.  A piece is a layout of blocks over those lists, a generator's block
starting where the previous one ends, and its matrix puts x^e * (term of an
entry) at its target block's start plus its monomial's position.  The map
out of each piece is made once and kept (map_out()); a window's is cut out
of the kept map of a larger window of its index, its columns and target
rows being prefixes of the blocks.

Each map out is forward-passed once (SparseMatrix.echelon: the RREF's
pivots, not cleared above), never reduced, columns sorted by the degree the
piece is cut by, ties by position.  Graded, that is one value, and each
piece keeps its own pass, in basis order.  Windowed, it is total degree,
and each index keeps one pass, at the largest window asked for or built: a
column of total degree at most n maps into rows of degree at most n + step,
so the window-n matrix is the first columns of a larger window's in degree
order (Macaulay matrices; Cox, Little and O'Shea, Ideals, Varieties, and
Algorithms, ch. 9 section 3), and its echelon form is the pass's rows with
pivots there.  rank(), dim() and piece() all read the pass: the rank of
window n is the number of its pivots of degree at most n; dim() is a
piece's size less its ranks out and in, so a caller need build only the
pieces that hold classes; piece() solves the kernel over the pass and
checks its quotient's count, which fails when the image leaves the kernel.
Only first_class() reads basis order: on a window it forward-passes the map
out itself.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from typing import NamedTuple

from .errors import InternalCheckError
from .linalg import SparseMatrix, echelon_kernel
from .poly import mono_mul, monomials_of_weighted_degree


class _Pass(NamedTuple):
    """A kept forward pass, made at window: order[q] is the basis position
    of its column q, and degrees are its pivots' degrees, ascending."""
    window: int
    order: list
    degrees: list
    pivots: list
    rows: list


class FreeComplex:
    """Free graded complex with a polynomial differential given by its entries."""

    def __init__(self, ring, generators, successor, entries, weights=None, shift=0):
        """generators: index -> [(label, offset)], offsets 0 without weights;
        successor: index -> the index its differential maps into;
        entries(label) -> [(target label, Polynomial)]; weights: monomial
        weights of the grading, or None for total-degree windows; shift: the
        internal degree of the differential when graded.
        """
        self.ring = ring
        self.weights = weights
        self.generators = generators
        self.successor = successor
        self.predecessor = {target: source for source, target in successor.items()}
        self.entries = {
            label: tuple(entries(label))
            for gens in generators.values()
            for label, _ in gens
        }
        self.min_degree = min(
            [0] + [offset for gens in generators.values() for _, offset in gens]
        )
        if weights is None:
            self.step = max(
                [0]
                + [p.total_degree() for images in self.entries.values() for _, p in images]
            )
        else:
            self.step = shift
        self._monomial_lists = {}  # degree -> (monomials, {exps: position})
        self._total_degree_lists = []  # total degree -> its monomials, windowed
        self._layouts = {}  # (index, degree) -> (size, {label: block})
        self._matrices = {}  # (index, degree) -> the map out of the piece
        self._built = {}  # index -> (window, its target's) of the largest map built
        self._passes = {}  # (index, degree) graded, index windowed -> its _Pass
        self._check_square_zero()

    def _check_square_zero(self):
        """Raise InternalCheckError unless d(d(g)) = 0 for every generator g.

        Each entry is read into its terms once.  d(d(g)) is summed as flat
        terms {(target, exps): coeff}, one product c1 * c2 at x^(e1 + e2) per
        pair of terms along g -> middle -> target, and must vanish exactly.
        """
        flat = {
            label: [(target, tuple(p.terms.items())) for target, p in images]
            for label, images in self.entries.items()
        }
        for label, images in flat.items():
            total = {}
            for middle, first in images:
                for target, second in flat[middle]:
                    for e1, c1 in first:
                        for e2, c2 in second:
                            key = (target, mono_mul(e1, e2))
                            acc = total.get(key)
                            total[key] = c1 * c2 if acc is None else acc + c1 * c2
            if any(total.values()):
                raise InternalCheckError(
                    f"the differential squares to a nonzero map on generator {label!r}"
                )

    def basis(self, index, degree) -> list:
        """Ordered basis [(label, exponents)] of the piece (index, degree)."""
        _, blocks = self._layout(index, degree)
        return [
            (label, exps)
            for label, (_, monomials, _) in blocks.items()
            for exps in monomials
        ]

    def _layout(self, index, degree):
        """(size, {label: (start, monomials, positions)}) of the piece: each
        generator's block starts where the previous one ends."""
        key = (index, degree)
        layout = self._layouts.get(key)
        if layout is None:
            blocks = {}
            size = 0
            for label, offset in self.generators.get(index, ()):
                monomials, positions = self._monomials(degree - offset)
                blocks[label] = (size, monomials, positions)
                size += len(monomials)
            layout = self._layouts[key] = (size, blocks)
        return layout

    def _monomials(self, degree):
        """(monomials, {exps: position}) of one degree, listed once.  A
        window's list concatenates those of each total degree up to it."""
        found = self._monomial_lists.get(degree)
        if found is None:
            if self.weights is not None:
                monomials = monomials_of_weighted_degree(self.weights, degree)
            else:
                lists = self._total_degree_lists
                ones = (1,) * self.ring.nvars
                for total in range(len(lists), degree + 1):
                    lists.append(monomials_of_weighted_degree(ones, total))
                monomials = list(
                    chain.from_iterable(lists[total] for total in range(degree + 1))
                )
            positions = {exps: k for k, exps in enumerate(monomials)}
            found = self._monomial_lists[degree] = (monomials, positions)
        return found

    def matrix(self, index, degree) -> SparseMatrix:
        """The differential out of the piece (index, degree), read off the entries.

        Column by column, each term of an entry lands in the row of its target
        block's start plus its monomial's position.
        """
        ncols, source = self._layout(index, degree)
        nrows, target = self._layout(self.successor[index], degree + self.step)
        rows = [{} for _ in range(nrows)]
        col = 0
        for label, (_, monomials, _) in source.items():
            images = [
                (target.get(target_label), coeff.terms.items())
                for target_label, coeff in self.entries[label]
            ]
            for exps in monomials:
                for block, terms in images:
                    if block is None:
                        raise InternalCheckError(
                            "the differential leaves its target piece"
                        )
                    start, _, positions = block
                    for e, c in terms:
                        row = positions.get(mono_mul(exps, e))
                        if row is None:
                            raise InternalCheckError(
                                "the differential leaves its target piece"
                            )
                        entry = rows[start + row]
                        value = entry[col] + c if col in entry else c
                        if value:
                            entry[col] = value
                        else:
                            del entry[col]
                col += 1
        return SparseMatrix(nrows, ncols, rows)

    def rank(self, index, degree) -> int:
        """Rank of the map out of the piece: the kept pass's pivots up to degree."""
        return bisect_right(self._pass(index, degree).degrees, degree)

    def map_out(self, index, degree) -> SparseMatrix:
        """The map out of the piece, made on first use and kept: built by
        matrix(), or cut out of the kept map of the largest window of the
        index built so far when that is larger (_cut)."""
        key = (index, degree)
        matrix = self._matrices.get(key)
        if matrix is None:
            built = self._built.get(index)  # windowed only
            if built is not None and degree < built[0]:
                matrix = self._cut(index, degree, *built)
            else:
                matrix = self.matrix(index, degree)
                if self.weights is None:
                    self._built[index] = (degree, degree + self.step)
            self._matrices[key] = matrix
        return matrix

    def _cut(self, index, degree, window, target_window) -> SparseMatrix:
        """The map out of the window degree, cut out of the kept map out of
        the larger window, built into target_window: each row is that of
        matrix(index, degree), entry for entry.  A kept column with an entry
        in a target row past its block's prefix raises InternalCheckError,
        as matrix() does: the differential leaves its target piece."""
        big = self._matrices[(index, window)]
        target = self.successor[index]
        columns = self._shared_columns(index, degree, window)
        nrows, cut_target = self._layout(target, degree + self.step)
        _, big_target = self._layout(target, target_window)
        rows = []
        for label, (big_start, monomials, _) in big_target.items():
            kept = len(cut_target[label][1])
            for k in range(len(monomials)):
                row = big.rows[big_start + k]
                cut = {columns[col]: v for col, v in row.items() if col in columns}
                if k < kept:
                    rows.append(cut)
                elif cut:
                    raise InternalCheckError("the differential leaves its target piece")
        return SparseMatrix(nrows, len(columns), rows)

    def _shared_columns(self, index, degree, window) -> dict:
        """{position in the window: position in the smaller window degree} of
        the basis elements the two share, the first monomials of each block."""
        _, source = self._layout(index, degree)
        columns = {}
        for label, (big_start, _, _) in self._layout(index, window)[1].items():
            start, monomials, _ = source[label]
            for k in range(len(monomials)):
                columns[big_start + k] = start + k
        return columns

    def _pass(self, index, degree) -> _Pass:
        """The kept forward pass the piece reads, made on first use: graded,
        the piece's own; windowed, the index's, columns by total degree, at
        the largest window asked for or built, and made again when a larger
        window is asked for."""
        key = index if self.weights is None else (index, degree)
        found = self._passes.get(key)
        if found is not None and found.window >= degree:
            return found
        if self.weights is None:
            window = max(degree, self._built.get(index, (degree,))[0])
            ncols, blocks = self._layout(index, window)
            degrees = [sum(e) for _, monomials, _ in blocks.values() for e in monomials]
            order = sorted(range(ncols), key=degrees.__getitem__)
        else:
            window, ncols = degree, self._layout(index, degree)[0]
            degrees, order = [degree] * ncols, range(ncols)
        pivots, rows = [], []
        target = self.successor.get(index)
        if target is not None and ncols and self._layout(target, window + self.step)[0]:
            matrix = self.map_out(index, window)
            if self.weights is None:
                at = {col: q for q, col in enumerate(order)}
                moved = [{at[col]: v for col, v in row.items()} for row in matrix.rows]
                matrix = SparseMatrix(matrix.nrows, ncols, moved)
            pivots, rows = matrix.echelon()
        degrees = [degrees[order[col]] for col in pivots]
        self._passes[key] = _Pass(window, order, degrees, pivots, rows)
        return self._passes[key]

    def _read(self, index, degree):
        """(pivots, rows, place): the kept pass cut to the piece's columns,
        its first ones; place[q] is the piece's basis position of column q."""
        found = self._pass(index, degree)
        rank = bisect_right(found.degrees, degree)
        place = found.order[: self._layout(index, degree)[0]]
        if found.window > degree:
            columns = self._shared_columns(index, degree, found.window)
            place = [columns[col] for col in place]
        return found.pivots[:rank], found.rows[:rank], place

    def dim(self, index, degree) -> int:
        """Cohomology dimension of the piece: its size less the ranks out and in."""
        size = self._layout(index, degree)[0]
        if not size:
            return 0
        rank_out = self.rank(index, degree) if index in self.successor else 0
        source = self.predecessor.get(index)
        rank_in = self.rank(source, degree - self.step) if source is not None else 0
        return size - rank_out - rank_in

    def piece(self, index, degree):
        """(basis, image, quotient) of the piece (index, degree).

        The kernel is solved over the kept pass (_read).  image is the
        forward pass (pivot_cols, rows), columns in basis order, of the map
        in's pivot columns; quotient() is the RREF of the kernel modulo it.
        Neither depends on the pass's order: the RREF is unique, and so is a
        residual modulo the image, the coset's vector zero at its pivots.
        """
        basis = self.basis(index, degree)
        pivots, rows, place = self._read(index, degree)
        taken = set(pivots)
        free = [col for col in range(len(basis)) if col not in taken]
        kernel = echelon_kernel(pivots, rows, free)
        kernel = [{place[col]: v for col, v in vector.items()} for vector in kernel]
        image = ([], [])
        source = self.predecessor.get(index)
        if source is not None:
            previous = (source, degree - self.step)
            columns, _, place = self._read(*previous)
            if columns:
                transposed = self.map_out(*previous).transpose().rows
                spanning = [transposed[place[col]] for col in columns]
                image = SparseMatrix(len(spanning), len(basis), spanning).echelon()
        return basis, image, quotient(kernel, image)

    def first_class(self, index, degree):
        """The first vector of the piece's canonical kernel basis that is not
        a boundary, or None when every one is.

        The canonical kernel basis, columns in basis order, is v_f for each
        free column f: the kernel vector 1 at f and 0 at the other free
        columns.  The free columns are read off a basis-order pass: graded,
        the kept one; windowed, one made here unless the map out is zero.
        Only the v_f reported is solved.  The map in, its rows cut down to
        the free columns, takes values in kernel coordinates, where v_f is
        e_f, so v_f is a boundary exactly when e_f is a row of its RREF.
        The cut keeps the rank of the map in, as the image lies in the
        kernel; otherwise InternalCheckError is raised.
        """
        kept = self._pass(index, degree)
        echelon = kept.pivots, kept.rows
        if self.weights is None and kept.pivots:  # kept in degree order
            echelon = self.map_out(index, degree).echelon()
        size = self._layout(index, degree)[0]
        pivots = set(echelon[0])
        free = [col for col in range(size) if col not in pivots]
        boundaries = set()
        source = self.predecessor.get(index)
        previous = (source, degree - self.step)
        if free and source is not None and self._layout(*previous)[0]:
            incoming = self.map_out(*previous)
            cut = [{} for _ in range(incoming.ncols)]
            for position, row in enumerate(free):
                for col, value in incoming.rows[row].items():
                    cut[col][position] = value
            pivot_cols, rows = SparseMatrix(incoming.ncols, len(free), cut).rref()
            rank = self.rank(*previous)
            if len(pivot_cols) != rank:
                raise InternalCheckError(
                    f"the map into piece {(index, degree)!r} has rank {rank} but "
                    f"{len(pivot_cols)} in kernel coordinates: the image leaves "
                    "the kernel"
                )
            boundaries = {col for col, row in zip(pivot_cols, rows) if len(row) == 1}
        for position, col in enumerate(free):
            if position not in boundaries:
                return echelon_kernel(*echelon, [col])[0]
        return None


def differential(entries, terms) -> dict:
    """d of flat terms {(label, exps): coeff}: d(x^e g) = x^e d(g), read off
    a complex's entries (label -> [(target, Polynomial)]) with no piece
    built.  Nonzero sums only."""
    total = {}
    for (label, exps), coeff in terms.items():
        for target, entry in entries[label]:
            for e, c in entry.terms.items():
                key = (target, mono_mul(exps, e))
                acc = total.get(key)
                total[key] = coeff * c if acc is None else acc + coeff * c
    return {key: value for key, value in total.items() if value}


def quotient(kernel, image):
    """The RREF (pivot_cols, rows) of kernel modulo image, as a complement;
    of image, an echelon form (pivot_cols, rows), only the pivots are read.

    The rows are those of the RREF of the kernel vectors whose pivot column
    is not an image pivot.  They span the kernel vectors that vanish at every
    image pivot, the canonical complement of the image (the residuals of the
    kernel modulo the image), because:

    - d^2 = 0 (checked when the complex is built), so the image lies inside
      the kernel, and a subspace's pivot columns are among its superspace's;
    - each RREF row is zero at the other rows' pivot columns, so the rows
      kept are zero at every image pivot, and they number dim ker - rank in,
      the dimension of that complement;
    - a subset of RREF rows is the RREF of its span, and the RREF is unique.

    Raises InternalCheckError unless dim ker - rank in rows are kept, which
    is what an image pivot outside the kernel's pivots gives.
    """
    image_pivots = set(image[0])
    ncols = 1 + max((col for vector in kernel for col in vector), default=-1)
    pivot_cols, rows = SparseMatrix(len(kernel), ncols, kernel).rref()
    kept = [k for k, col in enumerate(pivot_cols) if col not in image_pivots]
    if len(kept) != len(kernel) - len(image_pivots):
        raise InternalCheckError(
            f"the quotient keeps {len(kept)} kernel rows, not "
            f"{len(kernel)} - {len(image_pivots)}: the image leaves the kernel"
        )
    return [pivot_cols[k] for k in kept], [rows[k] for k in kept]
