"""Dense matrices with polynomial entries (module maps over O(C^d))."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import RingMismatchError, ShapeError
from .poly import PolyRing, Polynomial
from .scalars import GaussianRational


class PolyMatrix:
    """Immutable matrix of polynomials over a fixed ring."""

    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring: PolyRing, entries: Sequence[Sequence[Polynomial]]):
        rows = tuple(tuple(row) for row in entries)
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ShapeError("ragged polynomial matrix")
            for p in row:
                if p.ring != ring:
                    raise RingMismatchError("entry in a different ring")
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = ncols
        self.entries = rows

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def _check_ring(self, other: "PolyMatrix"):
        if self.ring != other.ring:
            raise RingMismatchError("matrices over different rings")

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_ring(other)
        if self.ncols != other.nrows:
            raise ShapeError("inner dimensions differ")
        rows = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                total = self.ring.zero()
                for k in range(self.ncols):
                    a = self.entries[i][k]
                    if a.is_zero():
                        continue
                    b = other.entries[k][j]
                    if b.is_zero():
                        continue
                    total = total + a * b
                row.append(total)
            rows.append(row)
        return PolyMatrix(self.ring, rows)

    __matmul__ = matmul

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols} over {self.ring!r})"

    def to_strings(self) -> list:
        return [[str(p) for p in row] for row in self.entries]


def _as_poly(ring: PolyRing, value) -> Polynomial:
    if isinstance(value, Polynomial):
        if value.ring != ring:
            raise RingMismatchError("scale factor in a different ring")
        return value
    if isinstance(value, (int, Fraction, GaussianRational)):
        return ring.constant(value)
    raise TypeError(f"cannot scale by {value!r}")
