"""Independent oracles used by the test suite.

These deliberately avoid the library's elimination and enumeration code:
dense textbook Gaussian elimination, brute-force staircase counting, and the
classical one-variable residue via polynomial division, the
row-scanning sparse elimination the library's column-indexed one replaced,
the column-indexed elimination through fresh vec_scale/vec_axpy dicts that
the in-place one replaced, the piece matrix read through a (label, exps)
row index that the block layout replaced, the textbook multivariate division
loop the heap-ordered normal form replaced, the polynomial-sum loop of the
Bezoutian's divided differences, the boundary-bulk map f_a solved from
its adjointness system, which the closed form replaced, the d^2 = 0 check
summed as Polynomial products, which the flat term sum replaced, the
associativity sweep through BraneCategory.product, which the tensor
contraction replaced, and the D^2 = W*Id check on dense block products and
the block-assembled Koszul factorization, which D kept as terms replaced,
and the vanishing witness read off the full RREF of the map out, which
the forward pass and one solved kernel vector replaced, and the classes of
the window below a windowed Hom's bound counted as quotient rows, which the
ranks there replaced, and the kernel read off an RREF and the reduction
modulo an RREF read directly, which echelon_kernel and echelon_reduce
replaced, and the parser that evaluated every literal, power and product
through Polynomial arithmetic, which the one building terms directly
replaced, and the term printer reading Fraction parts, which the one
reading the integer triple replaced, and the cache entry whose key went
through json.dumps whole at every digest, which keys joined from parts
serialized once replaced, and the pieces of a window read off forward
passes in basis order made at the window itself, which one degree-order pass
per index replaced, and the weights of W read off a SparseMatrix nullspace
over Q(i) with Fraction arithmetic, which the integer kernel replaced, and
the residue trace's Bezoutian built as Polynomials in a second ring of 2d
variables and divided by a second GroebnerBasis there, which the terms
divided by the Jacobi basis's own reducers replaced.
They share only the polynomial and sparse-vector arithmetic substrate, which
has its own algebraic-law tests.  full_hom_pieces is the exception: it
eliminates every Hom piece in full and takes its quotient through the
library's quotient(), which acyclic pieces no longer reach.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import gcd

from lgtft.errors import FactorizationError, InternalCheckError, ParseError
from lgtft.linalg import SparseMatrix, echelon_kernel, vec_axpy, vec_scale
from lgtft.scalars import GaussianRational, scalar_str
from lgtft.poly import Polynomial, mono_div, mono_mul


def dense_rank(rows) -> int:
    """Row-reduction rank of a dense matrix given as lists of scalars."""
    matrix = [list(row) for row in rows]
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = matrix[rank][col].inverse()
        matrix[rank] = [v * inv for v in matrix[rank]]
        for r in range(nrows):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [
                    a - factor * b for a, b in zip(matrix[r], matrix[rank])
                ]
        rank += 1
    return rank


def scan_rref(matrix):
    """(pivot_cols, rows) of a SparseMatrix by the row-scanning elimination:
    each pivot is found, and each pivot column cleared, by a pass over every
    row.  Same pivot rule as the library, none of its column bookkeeping."""
    work = [dict(row) for row in matrix.rows]
    order = list(range(matrix.nrows))
    done = []  # (pivot_col, work_index)
    used = set()
    for col in range(matrix.ncols):
        if len(done) == matrix.nrows:
            break  # every row holds a pivot, e.g. past A in [A | I]
        best = None
        for idx in order:
            if idx in used:
                continue
            coeff = work[idx].get(col)
            if coeff:
                score = (len(work[idx]), idx)
                if best is None or score < best[0]:
                    best = (score, idx)
        if best is None:
            continue
        pivot_idx = best[1]
        used.add(pivot_idx)
        scale = work[pivot_idx][col].inverse()
        work[pivot_idx] = vec_scale(work[pivot_idx], scale)
        pivot_row = work[pivot_idx]
        for idx in order:
            if idx == pivot_idx:
                continue
            coeff = work[idx].get(col)
            if coeff:
                work[idx] = vec_axpy(work[idx], -coeff, pivot_row)
        done.append((col, pivot_idx))
    return [col for col, _ in done], [work[idx] for _, idx in done]


def indexed_rref(matrix):
    """(pivot_cols, rows) of a SparseMatrix by column-indexed elimination in
    which every row operation builds a fresh row (vec_scale, vec_axpy).  Same
    pivot rule as the library."""
    work = [dict(row) for row in matrix.rows]
    holders = [set() for _ in range(matrix.ncols)]
    for idx, row in enumerate(work):
        for col in row:
            holders[col].add(idx)
    done = []  # (pivot_col, work_index)
    used = set()
    for col in range(matrix.ncols):
        if len(done) == matrix.nrows:
            break
        holding = holders[col]
        candidates = [(len(work[idx]), idx) for idx in holding if idx not in used]
        if not candidates:
            continue
        _, pivot_idx = min(candidates)
        used.add(pivot_idx)
        scale = work[pivot_idx][col].inverse()
        work[pivot_idx] = pivot_row = vec_scale(work[pivot_idx], scale)
        for idx in list(holding):
            if idx == pivot_idx:
                continue
            work[idx] = row = vec_axpy(work[idx], -work[idx][col], pivot_row)
            for k in pivot_row:
                if k in row:
                    holders[k].add(idx)
                else:
                    holders[k].discard(idx)
        done.append((col, pivot_idx))
    return [col for col, _ in done], [work[idx] for _, idx in done]


def indexed_matrix(complex_, index, degree):
    """The differential out of a FreeComplex piece, each term's row found in a
    {(label, exps): row} index of the target basis built for the piece."""
    source = complex_.basis(index, degree)
    target = complex_.basis(complex_.successor[index], degree + complex_.step)
    row_of = {element: row for row, element in enumerate(target)}
    rows = [{} for _ in target]
    for col, (label, exps) in enumerate(source):
        for target_label, coeff in complex_.entries[label]:
            for e, c in coeff.terms.items():
                row = row_of.get((target_label, mono_mul(exps, e)))
                if row is None:
                    raise InternalCheckError("the differential leaves its target piece")
                entry = rows[row]
                value = entry[col] + c if col in entry else c
                if value:
                    entry[col] = value
                else:
                    del entry[col]
    return SparseMatrix(len(target), len(source), rows)


def scan_nullspace(ncols, pivot_cols, rows):
    """Kernel basis from an RREF, one free column at a time over every pivot
    row."""
    pivot_of = dict(zip(pivot_cols, rows))
    basis = []
    for free in range(ncols):
        if free in pivot_of:
            continue
        vector = {free: GaussianRational(1)}
        for col, row in pivot_of.items():
            coeff = row.get(free)
            if coeff:
                vector[col] = -coeff
        basis.append(vector)
    return basis


def rref_nullspace(ncols, pivot_cols, rows):
    """The kernel basis read off an RREF in one walk over its rows' entries,
    the library's reading before echelon_kernel: a fully reduced pivot row
    has its other entries in free columns only."""
    pivots = set(pivot_cols)
    basis = {
        free: {free: GaussianRational(1)} for free in range(ncols) if free not in pivots
    }
    for col, row in zip(pivot_cols, rows):
        for free, coeff in row.items():
            if free != col:
                basis[free][col] = -coeff
    return list(basis.values())


def rref_reduce(pivot_cols, rows, vector):
    """(residual, coords) of vector modulo an RREF read directly, the
    library's reduction before echelon_reduce: each row is zero at the other
    rows' pivots, so coords[k] is the entry of vector at pivot_cols[k]."""
    coords = {k: vector[col] for k, col in enumerate(pivot_cols) if col in vector}
    residual = dict(vector)
    for k, coeff in coords.items():
        residual = vec_axpy(residual, -coeff, rows[k])
    return residual, coords


def staircase_count(leading_exponents, box) -> int:
    """Count monomials under the staircase by exhaustive divisibility checks."""

    def divisible(exps):
        return any(mono_div(exps, lead) is not None for lead in leading_exponents)

    count = 0
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == len(box):
            if not divisible(prefix):
                count += 1
            continue
        for e in range(box[len(prefix)]):
            stack.append(prefix + (e,))
    return count


def univariate_coeffs(p: Polynomial):
    """Dense coefficient list of a one-variable polynomial."""
    degree = p.total_degree()
    out = [GaussianRational(0)] * (degree + 1 if degree >= 0 else 0)
    for exps, coeff in p.terms.items():
        out[exps[0]] = coeff
    return out


def residue_one_var(numerator: Polynomial, denominator: Polynomial):
    """Global residue sum of numerator/denominator dx over all finite poles.

    Equals the coefficient of x^{deg(den)-1} in (numerator mod denominator),
    divided by the leading coefficient of the denominator.
    """
    num = univariate_coeffs(numerator)
    den = univariate_coeffs(denominator)
    while den and not den[-1]:
        den.pop()
    if not den:
        raise ZeroDivisionError("zero denominator")
    deg_den = len(den) - 1
    lead = den[-1]
    # polynomial long division: reduce num modulo den
    num = list(num)
    while len(num) > deg_den:
        top = num[-1]
        if top:
            shift = len(num) - 1 - deg_den
            factor = top / lead
            for k in range(deg_den + 1):
                num[shift + k] = num[shift + k] - factor * den[k]
        num.pop()
    if deg_den == 0:
        return GaussianRational(0)
    if len(num) <= deg_den - 1:
        return GaussianRational(0)
    return num[deg_den - 1] / lead


def division_normal_form(p, divisors):
    """The textbook division loop: take the grevlex-largest term of the whole
    working polynomial, subtract a multiple of the first divisor whose
    leading monomial divides it, else move it to the remainder."""
    leads = [g.leading_term() for g in divisors]
    remainder = p.ring.zero()
    work = p
    while not work.is_zero():
        exps, coeff = work.leading_term()
        reduced = False
        for g, (g_exps, g_coeff) in zip(divisors, leads):
            quotient_exps = mono_div(exps, g_exps)
            if quotient_exps is not None:
                factor = g.ring.monomial(quotient_exps, coeff / g_coeff)
                work = work - factor * g
                reduced = True
                break
        if not reduced:
            term = p.ring.monomial(exps, coeff)
            remainder = remainder + term
            work = work - term
    return remainder


def normal_form_table(algebra):
    """The multiplication table from the mu^2 normal forms of m_a * m_b, as
    sparse coordinate dicts."""
    ring, gb, index = algebra.ring, algebra.gb, algebra.index
    return tuple(
        tuple(
            {
                index[exps]: coeff
                for exps, coeff in gb.normal_form(
                    ring.monomial(mono_mul(a, b))
                ).terms.items()
            }
            for b in algebra.basis
        )
        for a in algebra.basis
    )


def table_is_associative(table) -> bool:
    """(e_a e_b) e_c == e_a (e_b e_c) on all mu^3 basis triples, each side
    expanded bilinearly from the sparse table entries."""
    mu = len(table)

    def times_basis(u, c, on_left):
        out = {}
        for k, uk in u.items():
            entry = table[c][k] if on_left else table[k][c]
            for j, t in entry.items():
                out[j] = out.get(j, GaussianRational(0)) + uk * t
        return {j: v for j, v in out.items() if v}

    return all(
        times_basis(table[a][b], c, False) == times_basis(table[b][c], a, True)
        for a in range(mu)
        for b in range(mu)
        for c in range(mu)
    )


def sparse_matmul(left, right):
    """The product of two SparseMatrix, row by row."""
    rows = []
    for row in left.rows:
        acc = {}
        for k, v in row.items():
            acc = vec_axpy(acc, v, right.rows[k])
        rows.append(acc)
    return SparseMatrix(left.nrows, right.ncols, rows)


def monomials_up_to(nvars, total_degree):
    """All exponent tuples with |e| <= total_degree, lexicographic order."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == nvars:
            out.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e)

    rec([], total_degree)
    return out


from lgtft.matfact import Morphism  # noqa: E402
from lgtft.polymatrix import PolyMatrix, _as_poly  # noqa: E402

# The chain-level oracle: a Morphism's two blocks rebuilt from its terms as
# polynomial matrices, multiplied with PolyMatrix.matmul and combined entry by
# entry with polynomial arithmetic.  Results go back through the block
# constructor Morphism(source, target, parity, blk0, blk1).


def morphism_blocks(morphism):
    """(blk0, blk1) of a Morphism: blk0 has the even source module, blk1 the
    odd one, and their targets have parities (parity, 1 - parity)."""
    a, b, parity = morphism.source, morphism.target, morphism.parity
    ring = a.lg.ring
    if parity == 0:
        shapes = [(b.rank0, a.rank0), (b.rank1, a.rank1)]
    else:
        shapes = [(b.rank1, a.rank0), (b.rank0, a.rank1)]
    blocks = [[[{} for _ in range(ncols)] for _ in range(nrows)]
              for nrows, ncols in shapes]
    for ((_, blk, i, j), exps), coeff in morphism.terms.items():
        blocks[blk][i][j][exps] = coeff
    return tuple(
        PolyMatrix(ring, [[ring.from_terms(t) for t in row] for row in block])
        for block in blocks
    )


def poly_identity(ring, n, scale=None):
    """scale (a polynomial or a scalar, 1 by default) times the n x n
    identity, as a PolyMatrix."""
    diag = ring.one() if scale is None else _as_poly(ring, scale)
    return PolyMatrix(
        ring, [[diag if i == j else ring.zero() for j in range(n)] for i in range(n)]
    )


def _entrywise(left, right, sign):
    """left + sign * right, entry by entry."""
    return PolyMatrix(left.ring, [
        [p + q * sign for p, q in zip(row_l, row_r)]
        for row_l, row_r in zip(left.entries, right.entries)
    ])


def oracle_add(f, g):
    (f0, f1), (g0, g1) = morphism_blocks(f), morphism_blocks(g)
    return Morphism(
        f.source, f.target, f.parity, _entrywise(f0, g0, 1), _entrywise(f1, g1, 1)
    )


def oracle_scale(f, factor):
    """factor * f, as factor times the identity, times each block."""
    ring = f.source.lg.ring
    blocks = (
        poly_identity(ring, blk.nrows, factor).matmul(blk)
        for blk in morphism_blocks(f)
    )
    return Morphism(f.source, f.target, f.parity, *blocks)


def oracle_compose(g, f):
    """g o f, one block product per block of f."""
    g0, g1 = morphism_blocks(g)
    f0, f1 = morphism_blocks(f)
    left0, left1 = (g0, g1) if f.parity == 0 else (g1, g0)
    return Morphism(
        f.source, g.target, f.parity + g.parity, left0.matmul(f0), left1.matmul(f1)
    )


def oracle_defect(f):
    """d(f) = D2 o f - (-1)^{deg f} f o D1."""
    d1, d2 = f.source, f.target
    blk0, blk1 = morphism_blocks(f)
    (d1_01, d1_10), (d2_01, d2_10) = morphism_blocks(d1.D), morphism_blocks(d2.D)
    out0, out1 = (d2_01, d2_10) if f.parity == 0 else (d2_10, d2_01)
    sign = 1 if f.parity else -1
    return Morphism(
        d1,
        d2,
        f.parity + 1,
        _entrywise(out0.matmul(blk0), blk1.matmul(d1_01), sign),
        _entrywise(out1.matmul(blk1), blk0.matmul(d1_10), sign),
    )


def oracle_supertrace(f):
    """str(f) of an endomorphism: Tr(blk0) - Tr(blk1), zero for odd f."""
    ring = f.source.lg.ring
    total = ring.zero()
    if f.parity == 0:
        blk0, blk1 = morphism_blocks(f)
        for k in range(blk0.nrows):
            total = total + blk0[k, k]
        for k in range(blk1.nrows):
            total = total - blk1[k, k]
    return total


def oracle_d_partial(obj, index):
    """The entrywise partial derivative of D."""
    ring = obj.lg.ring
    blocks = (
        PolyMatrix(ring, [[p.partial_derivative(index) for p in row]
                          for row in matrix.entries])
        for matrix in morphism_blocks(obj.D)
    )
    return Morphism(obj, obj, 1, *blocks)


# The brane-level oracles: D^2 = W*Id checked on dense PolyMatrix products,
# and a Koszul factorization assembled from PolyMatrix blocks, as they were
# before a brane kept D as terms.


def oracle_check_squares(lg, d01, d10):
    """Raise FactorizationError at the first entry, even summand first, in
    row-major order, where a dense block product differs from W*Id."""
    for left, right, rank, tag in (
        (d10, d01, d01.ncols, "even"),
        (d01, d10, d01.nrows, "odd"),
    ):
        product = left.matmul(right)
        expected = poly_identity(lg.ring, rank, lg.w)
        for i in range(rank):
            for j in range(rank):
                if product[i, j] != expected[i, j]:
                    raise FactorizationError(
                        f"D^2 differs from W*Id on the {tag} summand at entry "
                        f"({i + 1},{j + 1}): got {product[i, j]}, "
                        f"expected {expected[i, j]}"
                    )


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


def oracle_koszul_blocks(ring, pairs):
    """(d01, d10) of the tensor product of the rank 1|1 factorizations
    (a_k, b_k), assembled block by block."""
    a0, b0 = pairs[0]
    d01 = PolyMatrix(ring, [[a0]])
    d10 = PolyMatrix(ring, [[b0]])
    for a, b in pairs[1:]:
        r0, r1 = d01.ncols, d01.nrows
        new01 = _block_matrix(
            ring,
            [
                [d01, poly_identity(ring, r1, -b)],
                [poly_identity(ring, r0, a), d10],
            ],
        )
        new10 = _block_matrix(
            ring,
            [
                [d10, poly_identity(ring, r0, b)],
                [poly_identity(ring, r1, -a), d01],
            ],
        )
        d01, d10 = new01, new10
    return d01, d10


def oracle_hom_dims(lg, a, b, bound):
    """Independent degreewise rank computation on raw coefficient matrices."""
    ring = lg.ring
    weights = lg.weights
    shift = lg.weighted_degree

    def shapes(parity):
        if parity == 0:
            return [
                (b.rank0, a.rank0, b.weights0, a.weights0),
                (b.rank1, a.rank1, b.weights1, a.weights1),
            ]
        return [
            (b.rank1, a.rank0, b.weights1, a.weights0),
            (b.rank0, a.rank1, b.weights0, a.weights1),
        ]

    def basis(parity, m):
        out = []
        for blk, (nrows, ncols, wt, ws) in enumerate(shapes(parity)):
            for i in range(nrows):
                for j in range(ncols):
                    rem = m - (wt[i] - ws[j])
                    if rem < 0 or rem % 2:
                        continue
                    # one variable assumed in these oracle tests
                    if rem // 2 >= 0:
                        out.append((blk, i, j, (rem // 2,)))
        return out

    def as_morphism(parity, element, coeff):
        blk, i, j, exps = element
        blocks = [
            [[ring.zero()] * ncols for _ in range(nrows)]
            for nrows, ncols, _, _ in shapes(parity)
        ]
        blocks[blk][i][j] = ring.monomial(exps, coeff)
        return Morphism(a, b, parity, *(PolyMatrix(ring, rows) for rows in blocks))

    def raw_matrix(parity, m):
        source = basis(parity, m)
        target = basis(1 - parity, m + shift)
        index = {e: r for r, e in enumerate(target)}
        rows = [[GaussianRational(0)] * len(source) for _ in target]
        for col, element in enumerate(source):
            image = oracle_defect(as_morphism(parity, element, 1))
            for blk, matrix in enumerate(morphism_blocks(image)):
                for i in range(matrix.nrows):
                    for j in range(matrix.ncols):
                        for exps, c in matrix[i, j].terms.items():
                            row = index[(blk, i, j, exps)]
                            rows[row][col] = rows[row][col] + c
        return rows, len(source)

    offsets = [0]
    for parity in (0, 1):
        for nrows, ncols, wt, ws in shapes(parity):
            for i in range(nrows):
                for j in range(ncols):
                    offsets.append(wt[i] - ws[j])
    dims = {0: {}, 1: {}}
    for parity in (0, 1):
        for m in range(min(offsets), bound + 1):
            rows, ncols = raw_matrix(parity, m)
            if ncols == 0:
                continue
            rank_out = dense_rank(rows) if rows else 0
            rows_in, ncols_in = raw_matrix(1 - parity, m - shift)
            rank_in = dense_rank(rows_in) if (rows_in and ncols_in) else 0
            value = ncols - rank_out - rank_in
            if value:
                dims[parity][m] = value
    return dims


from lgtft.complex import quotient  # noqa: E402
from lgtft.certificate import koszul_hom_dims  # noqa: E402
from lgtft.matfact import _defect_complex  # noqa: E402


def full_hom_pieces(hom):
    """{(parity, m): (image, quot)} for each piece of a HomCohomology's whole
    window, every piece eliminated in full: the image from every column of the
    map in, the kernel from the map out (both by scan_rref), and the quotient
    from quotient(), acyclic pieces and pieces the Hom has not built included."""
    complex_ = _defect_complex(hom.a1, hom.a2, hom.graded)
    if hom.graded:
        degrees = range(complex_.min_degree, hom.bound + 1)
    else:
        degrees = [0]  # the windowed space is one piece
    out = {}
    for parity, m in [(p, n) for n in degrees for p in (0, 1)]:
        degree = m if hom.graded else hom.bound
        kernel, image = [], ([], [])
        if complex_.basis(parity, degree):
            outgoing = complex_.matrix(parity, degree)
            kernel = scan_nullspace(outgoing.ncols, *scan_rref(outgoing))
            previous = (complex_.predecessor[parity], degree - complex_.step)
            if complex_.basis(*previous):
                incoming = complex_.matrix(*previous).transpose()
                image = scan_rref(incoming)
        out[parity, m] = (image, quotient(kernel, image))
    return out


def window_class_counts(complex_, window) -> tuple:
    """(even, odd) numbers of classes in one window of a windowed defect
    complex, counted as quotient rows, the way a windowed Hom counted its
    window below the bound before ranks replaced it: each piece eliminated
    in full (scan_rref), kernel from the map out, image from every column of
    the map in, and the quotient from quotient()."""
    counts = []
    for parity in (0, 1):
        kernel, image = [], ([], [])
        if complex_.basis(parity, window):
            outgoing = complex_.matrix(parity, window)
            kernel = scan_nullspace(outgoing.ncols, *scan_rref(outgoing))
            previous = (complex_.predecessor[parity], window - complex_.step)
            if complex_.basis(*previous):
                image = scan_rref(complex_.matrix(*previous).transpose())
        counts.append(len(quotient(kernel, image)[1]))
    return tuple(counts)


def basis_order_piece(complex_, index, degree):
    """(basis, image, quotient) of a piece as FreeComplex.piece read it
    before one degree-order pass per index: the map out forward-passed at
    the piece itself, columns in basis order, the kernel solved over that
    pass, and the image spanned by the pivot columns of the map in's own
    basis-order pass."""

    def forward_pass(index, degree):
        target = complex_.successor.get(index)
        if target is None or not (
            complex_.basis(index, degree)
            and complex_.basis(target, degree + complex_.step)
        ):
            return [], []
        return complex_.matrix(index, degree).echelon()

    basis = complex_.basis(index, degree)
    pivots, rows = forward_pass(index, degree)
    free = [col for col in range(len(basis)) if col not in set(pivots)]
    kernel = echelon_kernel(pivots, rows, free)
    image = ([], [])
    source = complex_.predecessor.get(index)
    if source is not None:
        previous = (source, degree - complex_.step)
        columns = forward_pass(*previous)[0]
        if columns:
            transposed = complex_.matrix(*previous).transpose().rows
            spanning = [transposed[col] for col in columns]
            image = SparseMatrix(len(spanning), len(basis), spanning).echelon()
    return basis, image, quotient(kernel, image)


def piece_count_stabilized(hom, below) -> bool:
    """stabilized of a windowed HomCohomology from the classes of the window
    below its bound counted as quotient rows (window_class_counts): those
    equal the window's dims, and a certificate, where koszul_hom_dims gives
    one, equals them too."""
    found = (hom.dim(0), hom.dim(1))
    return (
        hom.bound >= 1
        and below == found
        and koszul_hom_dims(hom.a1, hom.a2) in (None, found)
    )


def full_class_coords(hom, pieces, morphism) -> list:
    """Coordinates of a cocycle's class through pieces from full_hom_pieces:
    each component reduced modulo the image, then modulo the quotient.  A
    component in a degree where the Hom built no piece, which it keys by
    element, is put in the coordinates of that piece's basis."""
    parity = morphism.parity
    position_of = {key: k for k, key in enumerate(hom.layout[parity])}
    coords = [GaussianRational(0)] * len(position_of)
    for m, vector in hom._split(parity, morphism.terms).items():
        if (parity, m) not in hom.pieces:
            basis = _defect_complex(hom.a1, hom.a2, hom.graded).basis(parity, m)
            vector = {basis.index(element): c for element, c in vector.items()}
        image, quot = pieces[parity, m]
        residual, _ = rref_reduce(*image, vector)
        residual, local_coords = rref_reduce(*quot, residual)
        if residual:
            raise AssertionError("a cocycle component escaped image + quotient")
        for local, value in local_coords.items():
            coords[position_of[m, local]] = value
    return coords


def chain_compose_classes(g, f, target_hom):
    """The class of g o f at chain level: the oracle's block product of the
    representatives, whose oracle defect must vanish, classified by
    class_of."""
    composite = oracle_compose(g.representative, f.representative)
    if not oracle_defect(composite).is_zero():
        raise AssertionError("the composite of two cocycles is not a cocycle")
    return target_hom.class_of(composite)


def loop_divided_difference(p, x_index, y_index):
    """(p - p[x->y]) / (x - y) as a sum of monomials, one polynomial
    addition per term."""
    ring = p.ring
    out = ring.zero()
    for exps, coeff in p.terms.items():
        k = exps[x_index]
        for t in range(k):
            step = list(exps)
            step[x_index] = t
            step[y_index] = exps[y_index] + (k - 1 - t)
            out = out + ring.monomial(tuple(step), coeff)
    return out


from itertools import permutations  # noqa: E402

from lgtft.errors import AdjointnessError, DegenerateTraceError  # noqa: E402
from lgtft.tft import _perm_sign  # noqa: E402


def solved_boundary_bulk(datum, i, t):
    """f_a(t) solved from Tr(m_k f) = tr_a(e_a(m_k) o t) on every bulk basis
    monomial m_k: the right-hand side is computed at chain level by the
    block oracle, from
    (m_k t) o Lambda_a, and read off the e_a, composition and tr_a tables,
    and the two must agree; the solution of the residue Gram system is then
    re-checked with the Gram matrix read off the multiplication table.  This
    is the path TFTDatum.boundary_bulk took before the closed form."""
    if not datum.bulk_pairing_nondegenerate():
        raise DegenerateTraceError("bulk pairing degenerate")
    obj = datum.branes.objects[i]
    d = datum.lg.dimension
    partials = [oracle_d_partial(obj, k) for k in range(d)]
    lam = Morphism.zero(obj, obj, d % 2)
    for sigma in permutations(range(d)):
        product = partials[sigma[0]]
        for index in sigma[1:]:
            product = oracle_compose(partials[index], product)
        lam = oracle_add(
            lam, product if _perm_sign(sigma) > 0 else oracle_scale(product, -1)
        )
    algebra = datum.bulk.algebra
    branes = datum.branes
    t_dict = branes.coords(t)
    rhs = {}
    for k, e_image in enumerate(datum.bulk_boundary_basis(i)):
        composed = oracle_scale(t.representative, algebra.basis_poly(k))
        poly = oracle_supertrace(oracle_compose(composed, lam))
        value = datum.c_d * datum.bulk.trace_of(algebra.nf_coords(poly))
        table = datum._trace(
            i, branes.product(i, i, i, branes.coords(e_image), t_dict)
        )
        if table != value:
            raise AdjointnessError(k, table, value)
        if value:
            rhs[k] = value
    solution = datum.bulk.trace.gram.solve(rhs)
    if solution is None:
        raise DegenerateTraceError("adjointness system is inconsistent")
    pairing = datum.bulk_gram().apply(solution)
    zero = GaussianRational(0)
    for k in range(algebra.dimension):
        if pairing.get(k, zero) != rhs.get(k, zero):
            raise AdjointnessError(k, pairing.get(k, zero), rhs.get(k, zero))
    return tuple(solution.get(k, zero) for k in range(algebra.dimension))


from lgtft.koszul import _vector_to_wedge  # noqa: E402


def label_order_rank(complex_, index, degree) -> int:
    """The rank of the map out of a piece, read off the RREF of that piece's
    own matrix, columns in basis order: each window eliminated on its own."""
    target = (complex_.successor[index], degree + complex_.step)
    if not (complex_.basis(index, degree) and complex_.basis(*target)):
        return 0
    return len(complex_.matrix(index, degree).rref()[0])


def cohomology_witness(complex_, k, m):
    """The vanishing witness of the (k, m) piece with the piece eliminated in
    full: the kernel of the map out and the image of the map in (both by
    scan_rref), and the first kernel vector whose residual modulo the image
    is nonzero."""
    basis = complex_.basis(k, m)
    kernel = scan_nullspace(len(basis), [], [])
    if complex_.basis(complex_.successor[k], m + complex_.step):
        outgoing = complex_.matrix(k, m)
        kernel = scan_nullspace(outgoing.ncols, *scan_rref(outgoing))
    image = ([], [])
    previous = (complex_.predecessor.get(k), m - complex_.step)
    if previous[0] is not None and complex_.basis(*previous):
        image = scan_rref(complex_.matrix(*previous).transpose())
    for vector in kernel:
        if rref_reduce(*image, vector)[0]:
            return _vector_to_wedge(complex_, basis, vector)
    raise InternalCheckError("positive cohomology dimension but no witness found")


def reduced_first_class(complex_, index, degree):
    """FreeComplex.first_class as it was before the forward pass: the map out
    of the piece reduced in full, columns in basis order, and the vector
    reported read off its whole canonical kernel basis (scan_rref,
    scan_nullspace).  The map in, cut down to the free columns, is reduced
    too, and v_f is a boundary exactly when e_f is one of its rows."""
    size = len(complex_.basis(index, degree))
    pivots, rows = [], []
    target = complex_.successor.get(index)
    if target is not None and size and complex_.basis(target, degree + complex_.step):
        pivots, rows = scan_rref(complex_.matrix(index, degree))
    taken = set(pivots)
    free = [col for col in range(size) if col not in taken]
    boundaries = set()
    previous = (complex_.predecessor.get(index), degree - complex_.step)
    if free and previous[0] is not None and complex_.basis(*previous):
        incoming = complex_.matrix(*previous)
        cut = [{} for _ in range(incoming.ncols)]
        for position, row in enumerate(free):
            for col, value in incoming.rows[row].items():
                cut[col][position] = value
        cut_pivots, cut_rows = scan_rref(SparseMatrix(incoming.ncols, len(free), cut))
        boundaries = {col for col, row in zip(cut_pivots, cut_rows) if len(row) == 1}
    for position in range(len(free)):
        if position not in boundaries:
            return scan_nullspace(size, pivots, rows)[position]
    return None


def polynomial_square_zero(complex_) -> bool:
    """d^2 = 0 on every generator of a FreeComplex, with d(d(g)) summed per
    target as Polynomial products first * second: the check that the flat
    term sum replaced, as a verdict."""
    zero = complex_.ring.zero()
    for images in complex_.entries.values():
        total = {}
        for middle, first in images:
            for target, second in complex_.entries[middle]:
                total[target] = total.get(target, zero) + first * second
        if any(not p.is_zero() for p in total.values()):
            return False
    return True


def product_associative(branes) -> bool:
    """h o (g o f) == (h o g) o f for every basis triple of every four
    objects, each side through BraneCategory.product on the position dicts
    {p: 1} of single basis classes: the sweep that the tensor contraction
    replaced."""
    one = GaussianRational(1)
    objects = range(len(branes))
    for i in objects:
        for j in objects:
            for k in objects:
                for target in objects:
                    hg_table = branes._tensors[(j, k, target)]
                    for (b, a), gf in branes._tensors[(i, j, k)].items():
                        f = {a: one}
                        for h in range(len(branes.basis(k, target))):
                            left = branes.product(i, k, target, {h: one}, gf)
                            right = branes.product(
                                i, j, target, hg_table[(h, b)], f
                            )
                            if left != right:
                                return False
    return True


# -- the Polynomial-arithmetic parser and the Fraction-part term printer ------

_MINUS_CHARS = {"-", "−"}  # ASCII hyphen and the typographic minus


def _tokenize(src: str):
    """Tokens (kind, value, position); every number is a Fraction, so p/q
    with q | p passes as an exponent (x^4/2 reads as x^2)."""
    tokens = []
    k, n = 0, len(src)
    while k < n:
        ch = src[k]
        if ch.isspace():
            k += 1
            continue
        if ch.isdigit():
            start = k
            while k < n and src[k].isdigit():
                k += 1
            numerator = int(src[start:k])
            if k < n and src[k] == "/":
                j = k + 1
                if j < n and src[j].isdigit():
                    k = j
                    while k < n and src[k].isdigit():
                        k += 1
                    denominator = int(src[j:k])
                    if denominator == 0:
                        raise ParseError("zero denominator", start)
                    tokens.append(("number", Fraction(numerator, denominator), start))
                    continue
                raise ParseError("expected digits after '/'", j)
            tokens.append(("number", Fraction(numerator), start))
            continue
        if ch.isalpha() or ch == "_":
            start = k
            while k < n and (src[k].isalnum() or src[k] == "_"):
                k += 1
            tokens.append(("name", src[start:k], start))
            continue
        if ch in _MINUS_CHARS:
            tokens.append(("-", "-", k))
            k += 1
            continue
        if ch in "+*^()":
            tokens.append((ch, ch, k))
            k += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    tokens.append(("end", None, n))
    return tokens


class _ArithmeticParser:
    """Recursive descent whose every literal is a constant Polynomial and
    whose every sum, product and power is Polynomial arithmetic."""

    def __init__(self, src, ring):
        self.ring = ring
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self) -> Polynomial:
        value = self.expression()
        kind, _, position = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", position)
        return value

    def expression(self):
        kind = self.peek()[0]
        negate = False
        if kind in ("+", "-"):
            self.advance()
            negate = kind == "-"
        value = self.term()
        if negate:
            value = -value
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value - rhs if op == "-" else value + rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            kind, value, position = self.peek()
            if kind == "-":
                raise ParseError("negative exponent", position)
            if kind != "number":
                raise ParseError("expected exponent", position)
            self.advance()
            if value.denominator != 1:
                raise ParseError("exponent must be an integer", position)
            return base ** int(value)
        return base

    def atom(self):
        kind, value, position = self.peek()
        if kind == "number":
            self.advance()
            return self.ring.constant(value)
        if kind == "name":
            self.advance()
            if value == "i":
                return self.ring.constant(GaussianRational(0, 1))
            try:
                index = self.ring.variables.index(value)
            except ValueError:
                raise ParseError(f"undeclared variable {value!r}", position) from None
            return self.ring.var(index)
        if kind == "(":
            self.advance()
            value = self.expression()
            kind, _, position = self.peek()
            if kind != ")":
                raise ParseError("expected ')'", position)
            self.advance()
            return value
        if kind in ("+", "-"):
            self.advance()
            value = self.factor()
            return -value if kind == "-" else value
        raise ParseError("expected a term", position)


def arithmetic_parse(src: str, ring) -> Polynomial:
    """src parsed through Polynomial arithmetic, as the library once did."""
    return _ArithmeticParser(src, ring).parse()


def fraction_term_str(exps, coeff, variables):
    """(is_negative, body) of one printed term, read from the coefficient's
    Fraction parts coeff.re and coeff.im."""
    mono = "*".join(
        name if e == 1 else f"{name}^{e}" for name, e in zip(variables, exps) if e
    )
    re, im = coeff.re, coeff.im
    if im == 0:
        negative, mag = re < 0, abs(re)
        if not mono:
            return negative, str(mag)
        if mag == 1:
            return negative, mono
        return negative, f"{mag}*{mono}"
    if re == 0:
        negative, mag = im < 0, abs(im)
        body = "i" if mag == 1 else f"{mag}*i"
        return negative, body if not mono else f"{body}*{mono}"
    body = f"({scalar_str(coeff)})"
    return False, body if not mono else f"{body}*{mono}"


def dumped_cache_entry(kind, key, payload) -> tuple:
    """(file name, record text) of a cache entry whose key is serialized
    whole, as json.dumps([kind, key], sort_keys=True) for the digest and
    inside json.dumps of the whole record."""
    digest = hashlib.sha256(
        json.dumps([kind, key], sort_keys=True).encode("utf-8")
    ).hexdigest()
    record = {"kind": kind, "key": key, "payload": payload}
    return f"{kind}-{digest}.json", json.dumps(record, sort_keys=True)


def nullspace_detect_weights(w):
    """Positive integer weights making w quasi-homogeneous, or None: the
    kernel of [exponents | -1] by SparseMatrix.nullspace, each vector tried
    alone and then their sum, through Fraction arithmetic."""
    exponents = list(w.terms)
    if not exponents:
        return None
    nvars = w.ring.nvars
    matrix = SparseMatrix(len(exponents), nvars + 1)
    for row, exps in enumerate(exponents):
        for col, e in enumerate(exps):
            if e:
                matrix.set(row, col, e)
        matrix.set(row, nvars, -1)
    kernel = matrix.nullspace()
    if not kernel:
        return None
    for vector in kernel:
        candidate = _fraction_weights(vector, nvars)
        if candidate is not None and w.homogeneous_weighted_degree(candidate) is not None:
            return candidate
    combined = {}
    for vector in kernel:
        for k, v in vector.items():
            combined[k] = combined.get(k, Fraction(0)) + v.re
    candidate = _fraction_weights(
        {k: v for k, v in combined.items() if v}, nvars, raw=True
    )
    if candidate is not None and w.homogeneous_weighted_degree(candidate) is not None:
        return candidate
    return None


def _fraction_weights(vector, nvars, raw=False):
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


from lgtft.groebner import GroebnerBasis  # noqa: E402
from lgtft.poly import PolyRing  # noqa: E402


def _fresh_suffix(names):
    suffix = "_y"
    while any((name + suffix) in names for name in names):
        suffix += "_"
    return suffix


def _embed(p, ring2, offset, d):
    """p in ring2, its variables moved to positions offset .. offset+d-1."""
    terms = {}
    for exps, coeff in p.terms.items():
        padded = [0] * ring2.nvars
        for k, e in enumerate(exps):
            padded[offset + k] = e
        terms[tuple(padded)] = coeff
    return Polynomial(ring2, terms)


def _divided_difference(p, x_index, y_index):
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


def _substitute_var(p, source, target):
    """p with the variable at source moved to target."""
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


def _polynomial_cofactor(ring, rows, top, cols):
    """The determinant of rows[top:] on the columns cols, as Polynomials."""
    if len(cols) == 1:
        return rows[top][cols[0]]
    total = ring.zero()
    for position, col in enumerate(cols):
        entry = rows[top][col]
        if entry.is_zero():
            continue
        minor = _polynomial_cofactor(
            ring, rows, top + 1, cols[:position] + cols[position + 1 :]
        )
        term = entry * minor
        total = total + term if position % 2 == 0 else total - term
    return total


def bezoutian_determinant(lg, ring2):
    """Determinant of the Bezoutian matrix of the partials in x and y groups,
    a Polynomial in ring2, the x variables and then the y variables."""
    d = lg.dimension
    partials = [_embed(p, ring2, 0, d) for p in lg.partials()]
    rows = []
    substituted = list(partials)  # g_j with the first i variables moved to y
    for i in range(d):
        rows.append([_divided_difference(g, i, d + i) for g in substituted])
        if i + 1 < d:
            substituted = [_substitute_var(g, i, d + i) for g in substituted]
    return _polynomial_cofactor(ring2, rows, 0, tuple(range(d)))


def two_ring_residue_trace(lg, scale):
    """(values, Gram matrix) of the residue trace at scale, by the two-ring
    route the padded reducers replaced: the Bezoutian as a Polynomial in a
    second ring of 2d variables, divided by a GroebnerBasis of the Jacobi
    basis embedded in the x and y groups."""
    algebra = lg.jacobi_algebra
    d = lg.dimension
    names = lg.ring.variables
    suffix = _fresh_suffix(names)
    ring2 = PolyRing(names + tuple(name + suffix for name in names))
    delta = bezoutian_determinant(lg, ring2)
    gens_x = [_embed(g, ring2, 0, d) for g in algebra.gb.generators]
    gens_y = [_embed(g, ring2, d, d) for g in algebra.gb.generators]
    reduced = GroebnerBasis(ring2, gens_x + gens_y).normal_form(delta)
    mu = algebra.dimension
    c_matrix = SparseMatrix(mu, mu)
    for exps, coeff in reduced.terms.items():
        c_matrix.set(algebra.index[exps[:d]], algebra.index[exps[d:]], coeff)
    gram = c_matrix.inverse()
    scale = GaussianRational.coerce(scale)
    values = tuple(scale * gram.get(algebra.unit_index, k) for k in range(mu))
    scaled = SparseMatrix(mu, mu, [vec_scale(row, scale) for row in gram.rows])
    return values, scaled
