"""Dense exact matrices over a finite field.

A matrix holds one read-only (nrows, ncols) int64 array of canonical field
elements, and all of its arithmetic is the field's elementwise operations on
whole arrays.  Vectors are plain tuples and act on the left (row vector
times matrix), matching the codeword conventions used throughout the
package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fields import Field

__all__ = ["Matrix", "vec_mat_mul"]


@dataclass(frozen=True, eq=False)
class Matrix:
    field: Field
    nrows: int
    ncols: int
    data: np.ndarray  # anything array-like on input; stored canonical and read-only

    def __post_init__(self) -> None:
        try:
            arr = np.array(self.data, dtype=np.int64)
        except OverflowError:  # entries past 64 bits are canonicalised as Python ints
            arr = np.array(self.data, dtype=object)
        if arr.size != self.nrows * self.ncols:
            raise ValueError("element count does not match shape")
        arr = self.field._canon_array(arr.reshape(self.nrows, self.ncols))
        arr = arr.astype(np.int64, copy=False)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self) -> int:
        return hash((self.field, self.data.shape, self.data.tobytes()))

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[int]]) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise ValueError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, n, n, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols, np.zeros((nrows, ncols), dtype=np.int64))

    def _with(self, data: np.ndarray) -> "Matrix":
        return Matrix(self.field, data.shape[0], data.shape[1], data)

    # -- access ---------------------------------------------------------------

    def __getitem__(self, idx: tuple[int, int]) -> int:
        i, j = idx
        return int(self.data[i, j])

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self.data[i].tolist())

    def rows(self) -> list[tuple[int, ...]]:
        return [tuple(r) for r in self.data.tolist()]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(self.data[:, j].tolist())

    def flatten(self) -> tuple[int, ...]:
        return tuple(self.data.ravel().tolist())

    def is_zero(self) -> bool:
        return not self.data.any()

    # -- arithmetic -----------------------------------------------------------

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.data.shape != other.data.shape:
            raise ValueError("shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return self._with(self.field.add(self.data, other.data))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return self._with(self.field.sub(self.data, other.data))

    def __neg__(self) -> "Matrix":
        return self._with(self.field.neg(self.data))

    def scale(self, c: int) -> "Matrix":
        return self._with(self.field.mul(c, self.data))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(
                f"dimension mismatch: {self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}"
            )
        f, a, b = self.field, self.data, other.data
        out = np.zeros((self.nrows, other.ncols), dtype=np.int64)
        for t in range(self.ncols):
            out = f.add(out, f.mul(a[:, t : t + 1], b[t]))
        return self._with(out)

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
        return self._with(self.data.T)

    @staticmethod
    def hjoin(mats: Sequence["Matrix"]) -> "Matrix":
        """Juxtaposition (A | B | ...) of matrices with equal row counts."""
        if not mats:
            raise ValueError("nothing to join")
        f = mats[0].field
        nrows = mats[0].nrows
        if any(m.field != f or m.nrows != nrows for m in mats):
            raise ValueError("incompatible matrices in horizontal join")
        return mats[0]._with(np.hstack([m.data for m in mats]))

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        """Reduced row echelon form and pivot columns."""
        f = self.field
        mat = self.data.copy()
        pivots: list[int] = []
        for c in range(self.ncols):
            r = len(pivots)
            if r == self.nrows:
                break
            nonzero = np.flatnonzero(mat[r:, c])
            if not nonzero.size:
                continue
            pr = r + int(nonzero[0])
            mat[[r, pr]] = mat[[pr, r]]
            # columns left of c are zero in the pivot row from here on
            mat[r, c:] = f.mul(f.inv(int(mat[r, c])), mat[r, c:])
            col = mat[:, c : c + 1].copy()
            col[r] = 0
            mat[:, c:] = f.sub(mat[:, c:], f.mul(col, mat[r, c:]))
            pivots.append(c)
        return self._with(mat), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def row_space_basis(self) -> "Matrix":
        """Nonzero rows of the RREF; rank x ncols (one zero row for rank 0)."""
        red, pivots = self.rref()
        return self._with(red.data[: max(len(pivots), 1)])

    def nullspace(self) -> list[tuple[int, ...]]:
        """Basis of {v : M v^T = 0}, one tuple per free column."""
        red, pivots = self.rref()
        free = [c for c in range(self.ncols) if c not in pivots]
        basis = np.zeros((len(free), self.ncols), dtype=np.int64)
        basis[np.arange(len(free)), free] = 1
        basis[:, list(pivots)] = self.field.neg(red.data[: len(pivots), free].T)
        return [tuple(v) for v in basis.tolist()]

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        red, pivots = Matrix.hjoin([self, Matrix.identity(self.field, n)]).rref()
        if pivots[:n] != tuple(range(n)):
            raise ValueError("matrix is singular")
        return self._with(red.data[:, n:])

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows


def vec_mat_mul(v: Sequence[int], m: Matrix) -> tuple[int, ...]:
    """Row vector times matrix over the matrix's field."""
    if len(v) != m.nrows:
        raise ValueError("dimension mismatch in vector-matrix product")
    return (Matrix(m.field, 1, m.nrows, v) @ m).row(0)
