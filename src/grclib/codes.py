"""Linear codes over GF(q) with exact distance machinery.

A length-mn vector is read as m contiguous blocks of n symbols; stacking
the blocks as rows gives the m x n array view, and the block weight counts
its nonzero columns.  All minimum distances are exact, computed by
exhaustive enumeration of the q^k codewords (dimension-capped).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import kernels
from .fields import Field, field_create
from .matrices import Matrix, vec_mat_mul
from .poly import Poly, poly_gcd_many

__all__ = [
    "Block",
    "WeightDistribution",
    "LinearCode",
    "hamming_weight",
    "block_weight",
]


@dataclass(frozen=True)
class Block:
    """Block metric with m blocks; Block(1) is the Hamming metric."""

    m: int

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("block count must be >= 1")


def hamming_weight(v: Sequence[int]) -> int:
    return sum(1 for x in v if x != 0)


def block_weight(v: Sequence[int], m: int) -> int:
    """Number of nonzero columns of the m x n array view of v."""
    if len(v) % m:
        raise ValueError(f"length {len(v)} not divisible by block count {m}")
    n = len(v) // m
    return sum(1 for j in range(n) if any(v[i * n + j] for i in range(m)))


@dataclass(frozen=True)
class WeightDistribution:
    counts: tuple[tuple[int, int], ...]  # (weight, count), ascending, zero counts dropped

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "WeightDistribution":
        return cls(tuple((int(w), int(c)) for w, c in enumerate(arr) if c))

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def min_positive(self) -> int:
        return min(w for w, _ in self.counts if w > 0)

    def __getitem__(self, w: int) -> int:
        return self.as_dict().get(w, 0)


def _circulant_rows(f: Poly, n: int, k: int) -> np.ndarray:
    """The k x n coefficient rows of x^i f mod x^n - 1, i < k, for f of
    degree below n: row i is f's length-n coefficient vector rotated right
    by i."""
    v = np.array([f.coeff(j) for j in range(n)], dtype=np.int64)
    return v[(np.arange(n) - np.arange(k)[:, None]) % n]


def _leads_staggered(rows: np.ndarray) -> bool:
    """Whether each row's first nonzero entry lies strictly right of the one
    above: such rows are independent, so the rank needs no elimination.  A
    cyclic code's generator x^i g(x) leads at column i, as g(0) != 0."""
    nonzero = rows != 0
    return bool(nonzero.any(axis=1).all() and (np.diff(nonzero.argmax(axis=1)) > 0).all())


@dataclass(frozen=True)
class LinearCode:
    """[n, k]_q linear code given by a full-rank generator matrix."""

    field: Field
    n: int
    k: int
    gen: Matrix

    def __post_init__(self) -> None:
        if self.gen.nrows != self.k or self.gen.ncols != self.n:
            raise ValueError("generator shape does not match (k, n)")
        if self.k > self.n:
            raise ValueError("dimension exceeds length")
        if not _leads_staggered(self.gen.data) and self.gen.rank() != self.k:
            raise ValueError("generator matrix is not full rank")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence[int]]) -> "LinearCode":
        g = Matrix.from_rows(field, rows)
        return cls(field, g.ncols, g.nrows, g)

    @classmethod
    def span(cls, field: Field, mat: Matrix) -> "LinearCode":
        """Code spanned by arbitrary rows; reduces to a row-space basis."""
        basis = mat.row_space_basis()
        if basis.nrows == 1 and all(x == 0 for x in basis.row(0)):
            raise ValueError("zero matrix spans the degenerate zero code")
        return cls(field, basis.ncols, basis.nrows, basis)

    @classmethod
    def cyclic(cls, field: Field, n: int, g: Poly) -> "LinearCode":
        """Cyclic code of length n with generator polynomial g(x)."""
        if g.field != field:
            raise ValueError("field mismatch")
        if g.is_zero():
            raise ValueError("the zero polynomial generates no cyclic code")
        g = g.monic()
        if not g.divides(Poly.xn_minus_1(field, n)):
            raise ValueError("generator polynomial does not divide x^n - 1")
        k = n - g.degree
        if k < 1:
            raise ValueError("trivial cyclic code")
        return cls(field, n, k, Matrix(field, k, n, _circulant_rows(g, n, k)))

    # -- basics ---------------------------------------------------------------

    @property
    def q(self) -> int:
        return self.field.q

    def encode(self, message: Sequence[int]) -> tuple[int, ...]:
        return vec_mat_mul(message, self.gen)

    @cached_property
    def cyclic_gen(self) -> Poly | None:
        """The monic generator polynomial when the code is cyclic, else None.

        g = gcd(rows, x^n - 1) generates the least cyclic code containing
        this one, of dimension n - deg g, so the two are equal exactly when
        deg g = n - k.  Read off the rows, it survives any generator basis
        and a GRC file."""
        rows = [Poly.from_coeffs(self.field, r) for r in self.gen.rows()]
        g = poly_gcd_many(rows + [Poly.xn_minus_1(self.field, self.n)])
        return g if g.degree == self.n - self.k else None

    # -- distances --------------------------------------------------------------

    def min_distance(self, metric: Block = Block(1), *, cap: int | None = None) -> int:
        return kernels.min_block_distance(self.field, self.gen.rows(), metric.m, cap=cap)

    def weight_distribution(
        self, metric: Block = Block(1), *, cap: int | None = None
    ) -> WeightDistribution:
        arr = kernels.weight_histogram(self.field, self.gen.rows(), metric.m, cap=cap)
        return WeightDistribution.from_array(arr)

    # -- derived codes ------------------------------------------------------------

    def sub_block_projection(self, m: int, blocks: Sequence[int]) -> Matrix:
        """Raw k x (|T| n) matrix keeping the 1-based blocks in T, in order."""
        if self.n % m:
            raise ValueError(f"length {self.n} not divisible by block count {m}")
        t = list(blocks)
        if not t:
            raise ValueError("empty block subset")
        if any(not 1 <= b <= m for b in t):
            raise ValueError("block index out of range")
        nb = self.n // m
        kept = self.gen.data.reshape(self.k, m, nb)[:, [b - 1 for b in t]]
        return Matrix(self.field, self.k, len(t) * nb, kept)

    def sub_block_code(self, m: int, blocks: Sequence[int]) -> "LinearCode":
        """Projection onto the chosen blocks, re-ranked to a basis."""
        raw = self.sub_block_projection(m, blocks)
        return LinearCode.span(self.field, raw)

    def extend(self) -> "LinearCode":
        """Append the overall parity column -sum(c_i)."""
        f = self.field
        parity = self.gen @ Matrix(f, self.n, 1, [f.neg(1)] * self.n)
        return LinearCode(f, self.n + 1, self.k, Matrix.hjoin([self.gen, parity]))

    # -- support ---------------------------------------------------------------

    def support(self) -> frozenset[int]:
        """1-based coordinates where some codeword is nonzero.

        A coordinate is in the support iff its generator column is nonzero,
        so no enumeration is needed.
        """
        return frozenset(
            j + 1 for j in range(self.n) if any(self.gen.col(j))
        )

    def effective_length(self) -> int:
        return len(self.support())

    def is_full_length(self) -> bool:
        return self.effective_length() == self.n

    # -- b-symbol metric -----------------------------------------------------------

    def shift_juxtaposition(self, b: int) -> Matrix:
        """(G, GX, ..., GX^(b-1)) with X the order-n cyclic shift."""
        if not 1 <= b <= self.n:
            raise ValueError("b must be in [1, n]")
        cols = np.arange(self.n)  # GX^t takes column (j + t) mod n of G to column j
        joined = np.hstack([self.gen.data[:, (cols + t) % self.n] for t in range(b)])
        return Matrix(self.field, self.k, b * self.n, joined)

    def b_symbol_distance(self, b: int, *, cap: int | None = None) -> int:
        """Minimum b-symbol distance via the Block(b) metric on (G, GX, ...)."""
        joined = self.shift_juxtaposition(b)
        return kernels.min_block_distance(self.field, joined.rows(), b, cap=cap)

    # -- serialization ---------------------------------------------------------

    def to_text(self, m: int | None = None) -> str:
        out = io.StringIO()
        header = f"{self.q} {self.n} {self.k}" + (f" {m}" if m else "")
        print(header, file=out)
        for r in self.gen.rows():
            print(" ".join(str(x) for x in r), file=out)
        return out.getvalue()

    @classmethod
    def from_text(cls, text: str) -> tuple["LinearCode", int | None]:
        head, field, rows, _ = _read_code_text(text, "code", "q n k [m]", (3, 4))
        return cls.from_rows(field, rows), head[3] if len(head) == 4 else None

    def __repr__(self) -> str:
        return f"LinearCode[{self.n},{self.k}]_{self.q}"


def _field_of_order(q: int) -> Field:
    """GF(q) for an order read from a file or a flag.  Orders above 2^31 are
    refused: products of two elements must fit in int64."""
    if not 2 <= q <= 1 << 31:
        raise ValueError(f"field order {q} outside [2, 2^31]")
    p = next((c for c in range(2, math.isqrt(q) + 1) if q % c == 0), q)
    rest, e = q, 0
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return field_create(p, e)


def _read_code_text(
    text: str, kind: str, layout: str, sizes: tuple[int, ...]
) -> tuple[list[int], Field, list[list[int]], list[str]]:
    """(header, field, generator rows, the nonblank lines after the rows) of
    a code file whose header is ``layout`` ('q n k [m]') with one of
    ``sizes`` values; ``kind`` names the file in error messages."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"missing {kind} header '{layout}'; the text is empty")
    if len(lines[0].split()) not in sizes:
        raise ValueError(f"bad {kind} header; expected '{layout}'")
    head = [int(x) for x in lines[0].split()]
    q, n, k = head[:3]
    if len(head) > 3 and head[3] < 1:
        raise ValueError(f"block count m must be >= 1, got {head[3]}")
    field = _field_of_order(q)
    rows = [[int(x) for x in ln.split()] for ln in lines[1 : 1 + k]]
    if len(rows) != k:
        raise ValueError(f"missing generator rows: header gives k={k}, found {len(rows)}")
    if any(len(r) != n for r in rows):
        raise ValueError("generator rows do not match header")
    return head, field, rows, lines[1 + k :]
