"""Exact elimination: kernels, images, inverses, reduction modulo an echelon form."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lgtft.errors import SingularMatrixError
from lgtft.complex import quotient
from lgtft.linalg import (
    SparseMatrix,
    echelon_kernel,
    echelon_reduce,
    vec_axpy,
    vec_from_list,
)
from lgtft.scalars import GaussianRational, I

from both_modes import run_both_modes
from oracles import (
    dense_rank,
    indexed_rref,
    rref_nullspace,
    rref_reduce,
    scan_nullspace,
    scan_rref,
    sparse_matmul,
)


def g(x):
    return GaussianRational(x)


def _kernel_and_image(m):
    kernel = m.nullspace()
    _, image = m.transpose().rref()
    assert len(kernel) + len(image) == m.ncols  # rank-nullity
    assert all(not m.apply(vector) for vector in kernel)
    return kernel, image


def test_identity_kernel_image():
    m = SparseMatrix.identity(3)
    kernel, image = _kernel_and_image(m)
    assert len(kernel) == 0
    assert len(image) == 3


def test_zero_map():
    m = SparseMatrix(2, 2)
    kernel, image = _kernel_and_image(m)
    assert len(kernel) == 2
    assert len(image) == 0


def test_single_relation_kernel():
    m = SparseMatrix.from_dense([[g(1), I]])
    kernel, image = _kernel_and_image(m)
    assert len(kernel) == 1
    assert kernel[0] == {0: GaussianRational(0, -1), 1: g(1)}


def test_rank_matches_dense_oracle_randomized():
    rng = random.Random(7)
    for _ in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        entries = [
            [
                GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1))
                if rng.random() < 0.6
                else g(0)
                for _ in range(ncols)
            ]
            for _ in range(nrows)
        ]
        m = SparseMatrix.from_dense(entries)
        kernel, image = _kernel_and_image(m)
        assert len(image) == dense_rank(entries)


def test_solve_and_inverse():
    m = SparseMatrix.from_dense([[g(2), g(1)], [g(1), g(1)]])
    rhs = {0: g(3), 1: g(2)}
    solution = m.solve(rhs)
    assert m.apply(solution) == rhs
    inv = m.inverse()
    assert sparse_matmul(m, inv).rows == SparseMatrix.identity(2).rows


def test_inconsistent_solve_returns_none():
    m = SparseMatrix.from_dense([[g(1), g(1)], [g(2), g(2)]])
    assert m.solve({0: g(0), 1: g(1)}) is None


def test_singular_inverse_raises():
    m = SparseMatrix.from_dense([[g(1), g(2)], [g(2), g(4)]])
    with pytest.raises(SingularMatrixError):
        m.inverse()


gaussian_integers = st.builds(
    GaussianRational, st.integers(-3, 3), st.integers(-1, 1)
)
# non-unit pivots, denominators and i
gaussian_rationals = st.builds(
    lambda re, im, d: GaussianRational(Fraction(re, d), Fraction(im, d)),
    st.integers(-4, 4),
    st.integers(-2, 2),
    st.sampled_from([1, 1, 2, 3, 6]),
)


@st.composite
def sparse_matrices(draw, square=False):
    """Dense entry lists with about half the entries zero."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if square else draw(st.integers(1, 6))
    entry = st.one_of(st.just(g(0)), gaussian_integers)
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


@given(sparse_matrices(square=True))
@settings(max_examples=150, deadline=None)
def test_inverse_against_dense_rank(entries):
    m = SparseMatrix.from_dense(entries)
    n = m.nrows
    if dense_rank(entries) < n:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    inv = m.inverse()
    assert sparse_matmul(m, inv) == SparseMatrix.identity(n)
    assert sparse_matmul(inv, m) == SparseMatrix.identity(n)


def _vectors(length):
    return st.lists(gaussian_integers, min_size=length, max_size=length)


@given(sparse_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_solve_against_dense_rank(entries, data):
    m = SparseMatrix.from_dense(entries)
    if data.draw(st.booleans()):
        # a right-hand side in the image, so consistent systems come up often
        x = data.draw(_vectors(m.ncols))
        rhs = [sum((a * b for a, b in zip(row, x)), g(0)) for row in entries]
    else:
        rhs = data.draw(_vectors(m.nrows))
    b = {i: v for i, v in enumerate(rhs) if v}
    solution = m.solve(b)
    augmented = [row + [v] for row, v in zip(entries, rhs)]
    if dense_rank(augmented) > dense_rank(entries):
        assert solution is None
    else:
        assert solution is not None
        assert m.apply(solution) == b


@st.composite
def sparse_row_matrices(draw):
    """Sparse Gaussian-rational matrices built row by row: empty rows and
    columns, duplicated and rescaled rows, and optionally [A | I]."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 7))
    density = draw(st.sampled_from([0.15, 0.35, 0.7]))
    nonzero = gaussian_rationals.filter(bool)
    rows = []
    for _ in range(nrows):
        row = {}
        for col in range(ncols):
            if draw(st.floats(0, 1)) < density:
                row[col] = draw(nonzero)
        rows.append(row)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        source = rows[draw(st.integers(0, len(rows) - 1))]
        factor = draw(nonzero)
        rows.append({col: factor * v for col, v in source.items()})
    if rows and draw(st.booleans()):
        order = draw(st.permutations(range(len(rows))))
        rows = [rows[k] for k in order]
    if draw(st.booleans()):
        rows = [
            {**row, ncols + k: g(1)} for k, row in enumerate(rows)
        ]
        ncols += len(rows)
    return SparseMatrix(len(rows), ncols, rows)


@given(sparse_row_matrices())
@settings(max_examples=300, deadline=None)
def test_elimination_against_row_scanning_oracle(m):
    """The in-place elimination equals the row-scanning one, and the
    column-indexed one through fresh dicts that it replaced also in the
    order of each row's entries."""
    original = [list(row.items()) for row in m.rows]
    pivot_cols, rows = m.rref()
    expected_cols, expected_rows = scan_rref(m)
    assert pivot_cols == expected_cols
    assert rows == expected_rows
    indexed_cols, indexed_rows = indexed_rref(m)
    assert pivot_cols == indexed_cols
    assert [list(row.items()) for row in rows] == [
        list(row.items()) for row in indexed_rows
    ]
    assert [list(row.items()) for row in m.rows] == original  # input unchanged
    kernel = m.nullspace()
    assert kernel == scan_nullspace(m.ncols, expected_cols, expected_rows)
    assert all(not m.apply(vector) for vector in kernel)
    dense = [[m.get(i, j) for j in range(m.ncols)] for i in range(m.nrows)]
    assert m.rank() == dense_rank(dense) == len(pivot_cols)
    assert len(kernel) == m.ncols - len(pivot_cols)


@given(sparse_row_matrices())
@settings(max_examples=300, deadline=None)
def test_forward_pass_keeps_the_pivots_of_the_reduction(m):
    """echelon() picks the RREF's pivot columns, so rank() is unchanged; its
    rows have pivot 1 and nothing left of it, span the RREF's row space, and
    each kernel vector solved back over them is the RREF's."""
    original = [list(row.items()) for row in m.rows]
    pivot_cols, rows = m.echelon()
    rref_cols, rref_rows = m.rref()
    assert pivot_cols == rref_cols
    dense = [[m.get(i, j) for j in range(m.ncols)] for i in range(m.nrows)]
    assert m.rank() == dense_rank(dense) == len(pivot_cols)
    for col, row in zip(pivot_cols, rows):
        assert row[col] == g(1)
        assert min(row) == col
        residual, _ = rref_reduce(rref_cols, rref_rows, row)
        assert not residual
    kernel = rref_nullspace(m.ncols, rref_cols, rref_rows)
    free = [col for col in range(m.ncols) if col not in set(pivot_cols)]
    assert [echelon_kernel(pivot_cols, rows, [col])[0] for col in free] == kernel
    assert [list(row.items()) for row in m.rows] == original  # input unchanged


@given(sparse_row_matrices(), st.data())
@settings(max_examples=300, deadline=None)
def test_echelon_kernel_and_reduce_against_the_rref_readings(m, data):
    """Over the forward pass and over the RREF, echelon_kernel gives the
    kernel vectors read off the RREF, for every free column and for any
    subset of them in any order.  Modulo the forward pass, a spanning set of
    the row space, echelon_reduce gives the residual of the RREF read
    directly, and on the RREF also its coordinates, as it does modulo a
    kernel basis taken as (free columns, kernel), whose rows are zero at the
    other rows' pivots too."""
    forward = m.echelon()
    rref_cols, rref_rows = m.rref()
    kernel = rref_nullspace(m.ncols, rref_cols, rref_rows)
    free = [col for col in range(m.ncols) if col not in set(rref_cols)]
    subset = data.draw(st.lists(st.sampled_from(free), unique=True)) if free else []
    for form in (forward, (rref_cols, rref_rows)):
        assert echelon_kernel(*form, free) == kernel
        assert echelon_kernel(*form, subset) == [kernel[free.index(f)] for f in subset]

    vector = vec_from_list(data.draw(_vectors(m.ncols)))
    expected = rref_reduce(rref_cols, rref_rows, vector)
    assert echelon_reduce(rref_cols, rref_rows, vector) == expected
    residual, coords = echelon_reduce(*forward, vector)
    assert residual == expected[0]
    rebuilt = dict(residual)
    for k, coeff in coords.items():
        rebuilt = vec_axpy(rebuilt, coeff, forward[1][k])
    assert rebuilt == vector
    assert echelon_reduce(free, kernel, vector) == rref_reduce(free, kernel, vector)


def _dense(vectors, ncols):
    return [[vector.get(col, g(0)) for col in range(ncols)] for vector in vectors]


@given(sparse_row_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_rref_reduce_and_quotient_against_dense_rank(m, data):
    """The image is spanned by random combinations of the kernel vectors of m.

    The quotient rows lie in the kernel, are zero at the image pivots, are in
    RREF and number dim ker - rank in; together these fix them uniquely."""
    n = m.ncols
    kernel = m.nullspace()
    assert len(kernel) == n - dense_rank(_dense(m.rows, n))
    combos = data.draw(st.lists(_vectors(len(kernel)), max_size=4))
    gens = []
    for combo in combos:
        vector = {}
        for coeff, kernel_vector in zip(combo, kernel):
            vector = vec_axpy(vector, coeff, kernel_vector)
        gens.append(vector)
    image = SparseMatrix(len(gens), n, gens).rref()
    rank_in = dense_rank(_dense(gens, n))
    assert len(image[0]) == rank_in

    pivot_cols, rows = quotient(kernel, image)
    assert len(rows) == len(pivot_cols) == len(kernel) - rank_in
    assert all(not m.apply(row) for row in rows)
    assert not set(pivot_cols) & set(image[0])
    assert all(not row.get(col) for row in rows for col in image[0])
    assert pivot_cols == sorted(set(pivot_cols))
    for col, row in zip(pivot_cols, rows):
        assert min(row) == col and row[col] == g(1)
        assert not any(row.get(other) for other in pivot_cols if other != col)
    assert dense_rank(_dense(gens + rows, n)) == len(kernel)

    vector = vec_from_list(data.draw(_vectors(n)))
    in_image = dense_rank(_dense(gens + [vector], n)) == rank_in
    for reduce in (rref_reduce, echelon_reduce):
        residual, coords = reduce(*image, vector)
        rebuilt = dict(residual)
        for k, coeff in coords.items():
            rebuilt = vec_axpy(rebuilt, coeff, image[1][k])
        assert rebuilt == vector
        assert not any(residual.get(col) for col in image[0])
        assert in_image == (not residual)


def test_quotient_of_an_image_outside_the_kernel_fails_closed():
    """An image pivot that is not a kernel pivot raises, also under python -O."""
    script = """
from lgtft.complex import quotient
from lgtft.errors import InternalCheckError
from lgtft.linalg import SparseMatrix
from lgtft.scalars import GaussianRational
one, zero = GaussianRational(1), GaussianRational(0)
kernel = SparseMatrix.from_dense([[one, one, zero]]).nullspace()
try:
    quotient(kernel, ([1], [{1: one}]))
    print("kept")
except InternalCheckError:
    print("raised")
"""
    for flags, stdout in run_both_modes(script).items():
        assert stdout.split() == ["raised"], flags


def test_acyclic_piece_with_an_image_outside_the_kernel_fails_closed():
    """d(a) = c, d(b) = 0, d(c) = a, with the d^2 = 0 check patched out.  In
    piece 0 the kernel {b} and the rank of the map in are both 1, so the piece
    looks acyclic, but the image {a} leaves the kernel.  Piece 1 has an empty
    kernel but a map in of rank 1.  piece() takes no shortcut for either, and
    both raise through the quotient's count, also under python -O."""
    script = """
from lgtft.complex import FreeComplex
from lgtft.errors import InternalCheckError
from lgtft.poly import PolyRing
ring = PolyRing(["x"])
one = ring.one()
entries = {"a": [("c", one)], "b": [], "c": [("a", one)]}
FreeComplex._check_square_zero = lambda self: None
complex_ = FreeComplex(
    ring, {0: [("a", 0), ("b", 0)], 1: [("c", 0)]}, {0: 1, 1: 0}, entries.get
)
for index in (1, 0):
    try:
        basis, image, quotient = complex_.piece(index, 0)
        print("piece", index, len(image[0]), len(quotient[0]))
    except InternalCheckError as exc:
        quotient = str(exc).startswith("the quotient keeps")
        leaves = str(exc).endswith("the image leaves the kernel")
        print("raised", "quotient" if quotient and leaves else exc)
"""
    for flags, stdout in run_both_modes(script).items():
        assert stdout.split() == [
            "raised", "quotient", "raised", "quotient"
        ], flags
