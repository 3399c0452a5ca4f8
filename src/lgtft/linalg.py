"""Exact sparse linear algebra over Q(i).

Matrices are lists of sparse rows (dict column -> nonzero scalar).  Pivoting
is deterministic: columns are processed left to right and the candidate row
with the fewest nonzero entries (ties broken by position) wins, so every
kernel/image basis this module produces is reproducible bit for bit.  There is
one elimination routine, SparseMatrix._rref_rows, run in one of two modes:

- the reduction, rref(): each pivot row is cleared above and below its pivot,
  giving the unique RREF.  solve and inverse reduce [A | b] and [A | I]; a
  subspace (an image, a quotient) is kept as the RREF (pivot_cols, rows) of a
  spanning set, and rref_reduce reduces a vector modulo it.  Since the RREF is
  unique, none of these results depends on the pivot rule;
- the forward pass, echelon(): a pivot row leaves the column index once it is
  chosen, so no row above a pivot is updated.  Its pivot columns are those of
  the RREF: both are the greedy column basis of the column order, which is
  fixed before any back-substitution.  rank() reads it, and so do callers that
  read only ranks or pivot columns (the Koszul tables, the Hom certificate,
  the TFT clause ranks); echelon_kernel_vector solves one kernel vector back
  over its rows.

Elimination does sparse work.  A column index (column -> rows with a nonzero
entry there) gives the candidate rows of each pivot column and the rows to
clear, and each row operation updates the row in place and the index on the
pivot row's columns only; the pivot rule is the one above.  The kernel is read
off the RREF in one walk over its entries.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import ShapeError, SingularMatrixError
from .scalars import ONE, GaussianRational

Vector = dict  # column index -> nonzero GaussianRational


def vec_scale(a: Vector, scale) -> Vector:
    if not scale:
        return {}
    return {k: v * scale for k, v in a.items()}


def vec_axpy(target: Vector, scale, source: Vector) -> Vector:
    """target + scale*source, returned as a fresh dict."""
    if not scale:
        return dict(target)
    out = dict(target)
    for k, v in source.items():
        delta = scale * v
        acc = out.get(k)
        total = delta if acc is None else acc + delta
        if total:
            out[k] = total
        elif k in out:
            del out[k]
    return out


def columns_apply(columns: Sequence[Vector], vector: Vector) -> Vector:
    """The matrix whose column j is columns[j], times vector."""
    out: Vector = {}
    for j, coeff in vector.items():
        for i, v in columns[j].items():
            acc = out.get(i)
            out[i] = coeff * v if acc is None else acc + coeff * v
    return {i: v for i, v in out.items() if v}


def vec_from_list(values: Sequence) -> Vector:
    out = {}
    for k, v in enumerate(values):
        v = GaussianRational.coerce(v)
        if v:
            out[k] = v
    return out


def rref_nullspace(ncols: int, pivot_cols: list, rows: list) -> list:
    """The kernel basis of a matrix with ncols columns, read off its RREF.

    One vector per free column, ascending.  A fully reduced pivot row has
    its other entries in free columns only, so one walk over the rows' entries
    fills every vector.
    """
    pivots = set(pivot_cols)
    basis = {
        free: {free: GaussianRational(1)} for free in range(ncols) if free not in pivots
    }
    for col, row in zip(pivot_cols, rows):
        for free, coeff in row.items():
            if free != col:
                basis[free][col] = -coeff
    return list(basis.values())


def echelon_kernel_vector(pivot_cols: list, rows: list, free: int) -> Vector:
    """The kernel vector that is 1 at the free column free and 0 at every
    other free column, solved back over an echelon form (pivot_cols, rows).

    Each row is 1 at its pivot and zero left of it, so going through the rows
    by descending pivot, a row's entries right of its pivot are all known.
    The vector is unique, so over an RREF it is rref_nullspace's.
    """
    vector = {free: GaussianRational(1)}
    for col, row in zip(reversed(pivot_cols), reversed(rows)):
        total = None
        for k, v in row.items():
            known = vector.get(k)  # None at col itself, not solved yet
            if known is not None:
                total = v * known if total is None else total + v * known
        if total:
            vector[col] = -total
    return vector


def rref_reduce(pivot_cols: list, rows: list, vector: Vector):
    """(residual, coords): vector less its component in the row space of an RREF.

    coords[k] multiplies rows[k], and the residual is zero at every pivot
    column, so it is zero exactly when vector lies in the row space.  Each row
    is zero at the other rows' pivot columns, so coords[k] is simply the entry
    of vector at pivot_cols[k].
    """
    coords = {k: vector[col] for k, col in enumerate(pivot_cols) if col in vector}
    residual = dict(vector)
    for k, coeff in coords.items():
        residual = vec_axpy(residual, -coeff, rows[k])
    return residual, coords


class SparseMatrix:
    """Sparse exact matrix; rows are dicts from column index to scalar.

    A row stores nonzero values only.  Elimination relies on it (a stored
    zero would be taken for a pivot candidate), so rows are built with set(),
    vec_from_list or the vec_* helpers, which drop zeros, or drop them alike.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            rows = [dict() for _ in range(nrows)]
        if len(rows) != nrows:
            raise ShapeError("row count mismatch")
        self.rows = rows

    @classmethod
    def from_dense(cls, entries: Sequence[Sequence]) -> "SparseMatrix":
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        rows = []
        for row in entries:
            if len(row) != ncols:
                raise ShapeError("ragged matrix")
            rows.append(vec_from_list(row))
        return cls(nrows, ncols, rows)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, [{k: GaussianRational(1)} for k in range(n)])

    def set(self, i: int, j: int, value):
        value = GaussianRational.coerce(value)
        if value:
            self.rows[i][j] = value
        elif j in self.rows[i]:
            del self.rows[i][j]

    def get(self, i: int, j: int) -> GaussianRational:
        return self.rows[i].get(j, GaussianRational(0))

    def is_zero(self) -> bool:
        return all(not row for row in self.rows)

    def transpose(self) -> "SparseMatrix":
        rows = [dict() for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                rows[j][i] = v
        return SparseMatrix(self.ncols, self.nrows, rows)

    def apply(self, vector: Vector) -> Vector:
        """Matrix times column vector (vector indexed by column)."""
        out: Vector = {}
        for i, row in enumerate(self.rows):
            total = GaussianRational(0)
            for j, v in row.items():
                coeff = vector.get(j)
                if coeff:
                    total = total + v * coeff
            if total:
                out[i] = total
        return out

    # -- elimination ---------------------------------------------------------

    def _rref_rows(self, reduce=True):
        """Reduced row echelon form of the row list, or with reduce=False the
        forward pass.

        Returns (pivot_cols, rows): rows sorted by pivot column, each
        normalized to pivot 1.  Reduced, every row is zero at the other
        rows' pivots.  The forward pass differs in one place: a chosen pivot
        row leaves the column index, so it is never updated again, and each
        row is zero only left of its pivot.  The rows not yet chosen see the
        same operations either way, so both passes pick the same pivots.
        holders[col] is the set of rows with a nonzero entry in column col; a
        row operation changes only the columns of the pivot row, so only
        those entries are updated.  Rows are copied once and then updated in
        place; a pivot that is already 1 is not scaled.
        """
        work = [dict(row) for row in self.rows]
        holders = [set() for _ in range(self.ncols)]
        for idx, row in enumerate(work):
            for col in row:
                holders[col].add(idx)
        done = []  # (pivot_col, work_index)
        used = set()
        for col in range(self.ncols):
            if len(done) == self.nrows:
                break  # every row holds a pivot, e.g. past A in [A | I]
            holding = holders[col]
            candidates = [(len(work[idx]), idx) for idx in holding if idx not in used]
            if not candidates:
                continue
            _, pivot_idx = min(candidates)
            used.add(pivot_idx)
            done.append((col, pivot_idx))
            pivot_row = work[pivot_idx]
            if not reduce:
                for k in pivot_row:
                    holders[k].discard(pivot_idx)
            pivot = pivot_row[col]
            if pivot != ONE:
                scale = pivot.inverse()
                for k, v in pivot_row.items():
                    pivot_row[k] = v * scale
            targets = [idx for idx in holding if idx != pivot_idx]
            if not targets:
                continue
            # row -= row[col] * pivot_row: col drops out, as the pivot is 1,
            # and each other column k adds row[col] * (-pivot_row[k])
            negated = [(k, -v) for k, v in pivot_row.items() if k != col]
            for idx in targets:
                row = work[idx]
                factor = row.pop(col)
                holding.discard(idx)
                for k, v in negated:
                    acc = row.get(k)
                    if acc is None:
                        row[k] = factor * v
                        holders[k].add(idx)
                    else:
                        total = acc + factor * v
                        if total:
                            row[k] = total
                        else:
                            del row[k]
                            holders[k].discard(idx)
        return [col for col, _ in done], [work[idx] for _, idx in done]

    def rref(self):
        return self._rref_rows()

    def echelon(self):
        """(pivot_cols, rows) of the forward pass: the RREF's pivot columns,
        rows with pivot 1 and zero left of it, not reduced above pivots."""
        return self._rref_rows(reduce=False)

    def rank(self) -> int:
        pivot_cols, _ = self.echelon()
        return len(pivot_cols)

    def nullspace(self) -> list:
        """Canonical kernel basis: one vector per free column, ascending."""
        return rref_nullspace(self.ncols, *self.rref())

    def solve(self, rhs: Vector) -> Optional[Vector]:
        """The solution of A x = rhs with free variables zero, or None when
        inconsistent, that is when the last column of [A | rhs] is a pivot."""
        n = self.ncols
        rows = [dict(row) for row in self.rows]
        for i, v in rhs.items():
            if v:
                rows[i][n] = v
        pivot_cols, reduced = SparseMatrix(self.nrows, n + 1, rows).rref()
        if pivot_cols and pivot_cols[-1] == n:
            return None
        solution: Vector = {}
        for col, row in zip(pivot_cols, reduced):
            v = row.get(n)
            if v:
                solution[col] = v
        return solution

    def inverse(self) -> "SparseMatrix":
        """A^-1, read off the RREF [I | A^-1] of [A | I]."""
        n = self.nrows
        if n != self.ncols:
            raise ShapeError("only square matrices can be inverted")
        rows = [dict(row) for row in self.rows]
        for k, row in enumerate(rows):
            row[n + k] = GaussianRational(1)
        pivot_cols, reduced = SparseMatrix(n, 2 * n, rows).rref()
        if pivot_cols != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return SparseMatrix(
            n, n, [{j - n: v for j, v in row.items() if j >= n} for row in reduced]
        )

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols})"
