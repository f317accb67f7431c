"""Dense exact matrices over a finite field.

Row-major storage of int representatives.  Vectors are plain tuples and act
on the left (row vector times matrix), matching the codeword conventions
used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import Field

__all__ = ["Matrix", "vec_mat_mul"]


@dataclass(frozen=True)
class Matrix:
    field: Field
    nrows: int
    ncols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.data) != self.nrows * self.ncols:
            raise ValueError("element count does not match shape")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[int]]) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        if field.e == 1:
            data = tuple(int(x) % field.p for r in rows for x in r)
        else:
            data = tuple(field._canon(x) for r in rows for x in r)
        return cls(field, len(rows), ncols, data)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(field, n, n, tuple(data))

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols, (0,) * (nrows * ncols))

    # -- access ---------------------------------------------------------------

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        return self.data[i * self.ncols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i * self.ncols : (i + 1) * self.ncols]

    def rows(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.nrows)]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.data[i * self.ncols + j] for i in range(self.nrows))

    def to_numpy(self) -> np.ndarray:
        return np.array(self.data, dtype=np.int64).reshape(self.nrows, self.ncols)

    def flatten(self) -> tuple[int, ...]:
        return self.data

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.data)

    # -- arithmetic -----------------------------------------------------------

    def _check_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        f = self.field
        if f.e == 1:
            data = tuple((a + b) % f.p for a, b in zip(self.data, other.data))
        else:
            data = tuple(f.add(a, b) for a, b in zip(self.data, other.data))
        return Matrix(f, self.nrows, self.ncols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols, tuple(f.neg(a) for a in self.data))

    def scale(self, c: int) -> "Matrix":
        f = self.field
        return Matrix(f, self.nrows, self.ncols, tuple(f.mul(c, a) for a in self.data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.ncols != other.nrows:
            raise ValueError(
                f"dimension mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        f = self.field
        if f.e == 1:
            prod = (self.to_numpy() @ other.to_numpy()) % f.p
            return Matrix(f, self.nrows, other.ncols, tuple(int(x) for x in prod.ravel()))
        out = [0] * (self.nrows * other.ncols)
        for i in range(self.nrows):
            for t in range(self.ncols):
                a = self.data[i * self.ncols + t]
                if a == 0:
                    continue
                for j in range(other.ncols):
                    b = other.data[t * other.ncols + j]
                    if b:
                        idx = i * other.ncols + j
                        out[idx] = f.add(out[idx], f.mul(a, b))
        return Matrix(f, self.nrows, other.ncols, tuple(out))

    def __pow__(self, n: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("matrix power requires a square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        out = Matrix.identity(self.field, self.nrows)
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def transpose(self) -> "Matrix":
        data = tuple(
            self.data[i * self.ncols + j]
            for j in range(self.ncols)
            for i in range(self.nrows)
        )
        return Matrix(self.field, self.ncols, self.nrows, data)

    @staticmethod
    def hjoin(mats: Sequence["Matrix"]) -> "Matrix":
        """Juxtaposition (A | B | ...) of matrices with equal row counts."""
        if not mats:
            raise ValueError("nothing to join")
        f = mats[0].field
        nrows = mats[0].nrows
        if any(m.field != f or m.nrows != nrows for m in mats):
            raise ValueError("incompatible matrices in horizontal join")
        rows = []
        for i in range(nrows):
            r: list[int] = []
            for m in mats:
                r.extend(m.row(i))
            rows.append(r)
        return Matrix.from_rows(f, rows)

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns."""
        f = self.field
        mat = [list(self.row(i)) for i in range(self.nrows)]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            if r >= self.nrows:
                break
            pr = next((i for i in range(r, self.nrows) if mat[i][c] != 0), None)
            if pr is None:
                continue
            mat[r], mat[pr] = mat[pr], mat[r]
            inv = f.inv(mat[r][c])
            if inv != 1:
                mat[r] = [f.mul(inv, x) for x in mat[r]]
            for i in range(self.nrows):
                if i != r and mat[i][c] != 0:
                    factor = mat[i][c]
                    mat[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(mat[i], mat[r])]
            pivots.append(c)
            r += 1
        return Matrix.from_rows(f, mat), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def row_space_basis(self) -> "Matrix":
        """Nonzero rows of the RREF; rank x ncols."""
        red, pivots = self.rref()
        rows = [red.row(i) for i in range(len(pivots))]
        if not rows:
            rows = [(0,) * self.ncols]
        return Matrix.from_rows(self.field, rows)

    def nullspace(self) -> list[tuple[int, ...]]:
        """Basis of {v : M v^T = 0}, one tuple per free column."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        f = self.field
        basis = []
        for fc in free:
            v = [0] * self.ncols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = f.neg(red[r, fc])
            basis.append(tuple(v))
        return basis

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = Matrix.hjoin([self, Matrix.identity(self.field, n)])
        red, pivots = aug.rref()
        if tuple(pivots[:n]) != tuple(range(n)) or len(pivots) < n:
            raise ValueError("matrix is singular")
        rows = [red.row(i)[n:] for i in range(n)]
        return Matrix.from_rows(self.field, rows)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows


def vec_mat_mul(v: Sequence[int], m: Matrix) -> tuple[int, ...]:
    """Row vector times matrix over the matrix's field."""
    if len(v) != m.nrows:
        raise ValueError("dimension mismatch in vector-matrix product")
    f = m.field
    if f.e == 1:
        arr = (np.array(v, dtype=np.int64) @ m.to_numpy()) % f.p
        return tuple(int(x) for x in arr)
    out = [0] * m.ncols
    for i, vi in enumerate(v):
        if vi == 0:
            continue
        row = m.row(i)
        for j in range(m.ncols):
            if row[j]:
                out[j] = f.add(out[j], f.mul(vi, row[j]))
    return tuple(out)
