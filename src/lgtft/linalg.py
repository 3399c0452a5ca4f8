"""Exact sparse linear algebra over Q(i).

Matrices are lists of sparse rows (dict column -> nonzero scalar).  Pivoting
is deterministic: columns are processed left to right and the candidate row
with the fewest nonzero entries (ties broken by position) wins, so every
kernel/image basis this module produces is reproducible bit for bit.  There is
one elimination routine, SparseMatrix._rref_rows, run in one of two modes:

- the forward pass, echelon(): a pivot row leaves the column index once it is
  chosen, so no row above a pivot is updated.  Its pivot columns are those of
  the RREF: both are the greedy column basis of the column order, which is
  fixed before any back-substitution.  It is the elimination wherever pivots,
  kernels or residuals are read: rank(), nullspace(), the maps out of and the
  images in the pieces of a complex, the Koszul tables, the Hom certificate
  and the TFT clause ranks;
- the reduction, rref(): each pivot row is cleared above and below its pivot,
  giving the unique RREF.  It runs only where canonical rows are read: solve
  and inverse reduce [A | b] and [A | I], and a complex reduces the kernel
  of a piece for its quotient and the map in cut to kernel coordinates.

echelon_kernel solves kernel vectors, and echelon_reduce reduces a vector
modulo a subspace, over either form.  Both results are fixed by the pivot
columns, which the two forms share, so neither depends on the form.

Elimination does sparse work.  A column index (column -> rows with a nonzero
entry there) gives the candidate rows of each pivot column and the rows to
clear, and each row operation updates the row in place and the index on the
pivot row's columns only; the pivot rule is the one above.
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


def echelon_kernel(pivot_cols: list, rows: list, free: Sequence[int]) -> list:
    """The kernel vectors v_f of the listed free columns f, in their order,
    solved in one sweep over an echelon form (pivot_cols, rows); an RREF is
    one.

    v_f is the unique kernel vector that is 1 at f and 0 at every other free
    column, so free columns not listed are held at 0.  Each row is 1 at its
    pivot and zero left of it, so going through the rows by descending pivot,
    each vector's entries right of a row's pivot are known when it is
    reached.  at[col] lists the vectors nonzero at col with their entries,
    None standing for the 1 at a listed free column.
    """
    vectors = [{f: ONE} for f in free]
    at = {f: ((n, None),) for n, f in enumerate(free)}
    for col, row in zip(reversed(pivot_cols), reversed(rows)):
        totals = {}
        for k, v in row.items():
            for n, known in at.get(k, ()):  # none at col, not solved yet
                term = v if known is None else v * known
                acc = totals.get(n)
                totals[n] = term if acc is None else acc + term
        solved = []
        for n, total in totals.items():
            if total:
                vectors[n][col] = value = -total
                solved.append((n, value))
        if solved:
            at[col] = solved
    return vectors


def echelon_reduce(pivot_cols: list, rows: list, vector: Vector):
    """(residual, coords): vector less its component in the span of rows.

    Each row must be 1 at its pivot and 0 at the pivots of the rows before
    it, as a forward pass and an RREF are.
    Row by row in pivot order, coords[k] is the residual's entry at
    pivot_cols[k], and subtracting coords[k] * rows[k] clears it without
    touching the pivots cleared before.  The residual is zero at every pivot
    column, so it is zero exactly when vector lies in the span, and it is
    the same for every such form of one subspace with the same pivot
    columns.  Over an RREF, coords[k] is the entry of vector at
    pivot_cols[k].  The residual is one copy of vector, updated in place.
    """
    residual = dict(vector)
    coords = {}
    for k, (col, row) in enumerate(zip(pivot_cols, rows)):
        if not residual:
            break
        coeff = residual.pop(col, None)
        if coeff is None:
            continue
        coords[k] = coeff
        scale = -coeff
        for j, v in row.items():
            if j != col:  # the pivot 1 is what pop() cleared
                acc = residual.get(j)
                total = scale * v if acc is None else acc + scale * v
                if total:
                    residual[j] = total
                else:
                    del residual[j]
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
        """Canonical kernel basis: one vector per free column, ascending,
        solved over the forward pass."""
        pivot_cols, rows = self.echelon()
        taken = set(pivot_cols)
        free = [col for col in range(self.ncols) if col not in taken]
        return echelon_kernel(pivot_cols, rows, free)

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
