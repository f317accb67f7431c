"""Vectorized exhaustive-enumeration kernels.

Everything distance-related funnels through one engine here:

- ``_span`` builds all q^r combinations of r generator rows in message-index
  order.  It is the only place codewords are built.  GF(2) rows are packed
  into uint64 words and combine by XOR; rows over other fields hold int16
  symbols and combine through the field's add/multiply tables.
- ``_chunks`` splits the q^k messages into chunks: the span of the low rows,
  built once, plus one combination of the high rows per chunk.
- ``_sweep`` turns each chunk into per-block support masks of shape
  (C, m, Wb) uint64, bit j of word w set when symbol 64*w + j of the block
  is nonzero.  Over GF(2) these are the packed codewords themselves.  A
  block may span several words, so block length is not limited.

Two reducers consume the masks: the per-subset fold behind the distance
profiles, and the union over all blocks behind single-metric distances and
weight histograms.  Reductions are deterministic and independent of chunk
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .fields import Field

__all__ = [
    "DEFAULT_CAP",
    "DimensionCapError",
    "subset_minima",
    "min_block_distance",
    "weight_histogram",
    "CodewordTable",
    "build_table",
]

DEFAULT_CAP = 28
_INF = np.iinfo(np.int64).max
_INF32 = np.iinfo(np.int32).max
_CHUNK_BUDGET = 1 << 22  # target mask words resident per chunk, across all subsets


class DimensionCapError(Exception):
    """Enumeration over q^k refused because k exceeds the configured cap."""


def check_cap(k: int, cap: int | None) -> None:
    limit = DEFAULT_CAP if cap is None else cap
    if k > limit:
        raise DimensionCapError(
            f"dimension {k} above enumeration cap {limit}; raise cap explicitly"
        )


# ---------------------------------------------------------------------------
# popcount

if hasattr(np, "bitwise_count"):

    def popcount_u64(a: np.ndarray) -> np.ndarray:
        return np.bitwise_count(a)

else:  # numpy < 2.0
    _POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def popcount_u64(a: np.ndarray) -> np.ndarray:
        b = np.ascontiguousarray(a).view(np.uint8).reshape(a.shape + (8,))
        return _POP8[b].sum(axis=-1, dtype=np.uint8)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits across the last (word) axis, as int32."""
    total = popcount_u64(words[..., 0]).astype(np.int32)
    for j in range(1, words.shape[-1]):
        total += popcount_u64(words[..., j])
    return total


# ---------------------------------------------------------------------------
# generator packing


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a (..., nbits) 0/1 array into (..., W) uint64, bit j of word w
    holding position 64*w + j (little-endian within the vector)."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    nbytes = 8 * ((bits.shape[-1] + 63) // 64)
    if packed.shape[-1] == nbytes:
        return packed.view(np.uint64)
    padded = np.zeros(packed.shape[:-1] + (nbytes,), dtype=np.uint8)
    padded[..., : packed.shape[-1]] = packed
    return padded.view(np.uint64)


def _rows_to_blocks(rows: Sequence[Sequence[int]], m: int) -> np.ndarray:
    arr = np.array(rows, dtype=np.int16)
    k, length = arr.shape
    if length % m:
        raise ValueError(f"length {length} not divisible by block count {m}")
    return arr.reshape(k, m, length // m)


# ---------------------------------------------------------------------------
# the enumeration engine


def _span(field: Field, rows: np.ndarray) -> np.ndarray:
    """All q^r combinations of the r rows, shape (q^r, width).

    Digit i (base q, little-endian) of the message index scales rows[i].
    GF(2) rows are packed words, combined by XOR; other rows hold symbols,
    and c * row is looked up in the field's multiplication table.
    """
    q = field.q
    out = np.zeros((q ** len(rows), rows.shape[1]), dtype=rows.dtype)
    size = 1  # out[:size] holds the span of the rows seen so far
    if q == 2:
        for row in rows:
            np.bitwise_xor(out[:size], row, out=out[size : 2 * size])
            size *= 2
        return out
    add, mul = field.tables()
    for row in rows:
        # the c = 0 term is out[:size] itself, already in place
        for c in range(1, q):
            out[c * size : (c + 1) * size] = add[out[:size], mul[c, row]]
        size *= q
    return out


def _chunks(
    field: Field, rows: np.ndarray, chunk_rows: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(low, high) per chunk: chunk t's codewords are low + high.

    ``low`` is the span of the first lo rows, with q^lo <= max(q, chunk_rows),
    and is the same array for every chunk.  ``high`` is the combination of
    the remaining rows selected by the high digits of t, so chunk t covers
    message indices [t * q^lo, (t+1) * q^lo).
    """
    q = field.q
    k = len(rows)
    lo = 1
    while lo < k and q ** (lo + 1) <= chunk_rows:
        lo += 1
    low = _span(field, rows[:lo])
    for high in _span(field, rows[lo:]):
        yield low, high


def _sweep(field: Field, rows: Sequence[Sequence[int]], m: int) -> Iterator[np.ndarray]:
    """Per-block support masks (C, m, Wb) uint64 of all q^k codewords.

    Chunks are sized for the largest consumer, the subset fold, which keeps
    a union of Wb words per row for each of the 2^m subsets.
    """
    blocks = _rows_to_blocks(rows, m)
    k, _, nb = blocks.shape
    wb = (nb + 63) // 64
    chunk_rows = _CHUNK_BUDGET // ((1 << m) * wb)
    if field.q == 2:
        packed = _pack_bits(blocks).reshape(k, m * wb)
        for low, high in _chunks(field, packed, chunk_rows):
            yield (low ^ high).reshape(-1, m, wb)
        return
    _, mul = field.tables()
    neg = mul[field.neg(1)]
    for low, high in _chunks(field, blocks.reshape(k, m * nb), chunk_rows):
        # low + high is nonzero exactly where low differs from -high
        yield _pack_bits((low != neg[high]).reshape(-1, m, nb))


# ---------------------------------------------------------------------------
# per-subset minima (single pass over the codeword space)


def subset_minima(
    field: Field,
    rows: Sequence[Sequence[int]],
    m: int,
    *,
    cap: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum block and Hamming weights of every nonempty block-subset.

    Returns (block_min, ham_min), each of length 2^m and indexed by the
    subset bitmask (bit i = block i+1 present).  Entry 0 and subsets whose
    projection is identically zero hold the _INF sentinel.
    """
    if m > 16:
        raise ValueError("block count above 16 not supported for profiles")
    check_cap(len(rows), cap)
    block_min = np.full(1 << m, _INF, dtype=np.int64)
    ham_min = np.full(1 << m, _INF, dtype=np.int64)
    for masks in _sweep(field, rows, m):
        _fold_subsets(masks, block_min, ham_min)
    return block_min, ham_min


def _fold_subsets(masks: np.ndarray, block_min: np.ndarray, ham_min: np.ndarray) -> None:
    """Fold one chunk of masks (C, m, Wb) into the per-subset minima.

    Subset t extends t minus its lowest block, so each subset costs one OR
    of unions and one add of Hamming weights.  Kept apart from the sweep so
    that a chunk's temporaries are freed before the next chunk is built.
    """
    m = masks.shape[1]
    bw = _popcount(masks)  # (C, m): Hamming weight of each block
    unions: list = [None] * (1 << m)
    hams: list = [None] * (1 << m)
    for t in range(1, 1 << m):
        i = (t & -t).bit_length() - 1
        rest = t ^ (1 << i)
        if rest:
            unions[t] = unions[rest] | masks[:, i]
            hams[t] = hams[rest] + bw[:, i]
            w = _popcount(unions[t])
        else:  # single block: block weight = Hamming weight
            unions[t] = masks[:, i]
            hams[t] = w = bw[:, i]
        nonzero = w != 0
        bm = int(np.min(w, where=nonzero, initial=_INF32))
        if bm != _INF32:  # some codeword has a nonzero projection onto t
            block_min[t] = min(int(block_min[t]), bm)
            hm = int(np.min(hams[t], where=nonzero, initial=_INF32))
            ham_min[t] = min(int(ham_min[t]), hm)


# ---------------------------------------------------------------------------
# single-metric sweeps: the union over all blocks


def min_block_distance(
    field: Field,
    rows: Sequence[Sequence[int]],
    m: int,
    *,
    cap: int | None = None,
) -> int:
    """Minimum block weight over nonzero codewords (m = 1: Hamming)."""
    check_cap(len(rows), cap)
    best = _INF32
    for masks in _sweep(field, rows, m):
        w = _popcount(np.bitwise_or.reduce(masks, axis=1))
        best = min(best, int(np.min(w, where=w != 0, initial=_INF32)))
    if best == _INF32:
        raise ValueError("degenerate zero code has no minimum distance")
    return best


def weight_histogram(
    field: Field,
    rows: Sequence[Sequence[int]],
    m: int,
    *,
    cap: int | None = None,
) -> np.ndarray:
    """Counts of codewords by block weight, length (n_blocks + 1)."""
    check_cap(len(rows), cap)
    nb_cols = len(rows[0]) // m
    counts = np.zeros(nb_cols + 1, dtype=np.int64)
    for masks in _sweep(field, rows, m):
        w = _popcount(np.bitwise_or.reduce(masks, axis=1))
        counts += np.bincount(w, minlength=nb_cols + 1)
    return counts


# ---------------------------------------------------------------------------
# full codeword tables (decoding support)

_TABLE_BUDGET = 1 << 24  # max resident elements for a decode table


@dataclass
class CodewordTable:
    """All q^k codewords of a blocked code, message-indexed.

    GF(2): ``packed`` has shape (2^k, m, Wb) uint64.  Other fields:
    ``values`` has shape (q^k, m, nb) int16.  Message index digits in base q
    (little-endian) are the message symbols.
    """

    field: Field
    k: int
    m: int
    nb: int
    packed: np.ndarray | None
    values: np.ndarray | None

    @property
    def size(self) -> int:
        return self.field.q**self.k

    def message(self, index: int) -> tuple[int, ...]:
        q = self.field.q
        out = []
        for _ in range(self.k):
            out.append(index % q)
            index //= q
        return tuple(out)

    def codeword(self, index: int) -> tuple[int, ...]:
        if self.values is not None:
            return tuple(int(x) for x in self.values[index].reshape(-1))
        words = self.packed[index]  # (m, Wb)
        bits: list[int] = []
        for b in range(self.m):
            for j in range(self.nb):
                bits.append(int(words[b, j // 64] >> np.uint64(j % 64)) & 1)
        return tuple(bits)


def build_table(field: Field, rows: Sequence[Sequence[int]], m: int) -> CodewordTable:
    k = len(rows)
    length = len(rows[0])
    nb = length // m
    if field.q**k * length > _TABLE_BUDGET * 4:
        raise DimensionCapError(f"codeword table too large for k={k}, q={field.q}")
    blocks = _rows_to_blocks(rows, m)
    if field.q == 2:
        packed = _pack_bits(blocks)
        wb = packed.shape[-1]
        table = _span(field, packed.reshape(k, m * wb))
        return CodewordTable(field, k, m, nb, table.reshape(-1, m, wb), None)
    table = _span(field, blocks.reshape(k, length))
    return CodewordTable(field, k, m, nb, None, table.reshape(-1, m, nb))


def pack_received_gf2(vec: Sequence[int], m: int) -> np.ndarray:
    """Pack one received word into (m, Wb) uint64 for the decode kernels."""
    arr = np.array(vec, dtype=np.uint8).reshape(m, -1)
    return _pack_bits(arr)


def hamming_distances(table: CodewordTable, received: np.ndarray, blocks: Sequence[int]) -> np.ndarray:
    """Distance from ``received`` to every codeword, restricted to ``blocks``.

    received: (m, Wb) uint64 (GF(2)) or (m, nb) int16.  Returns (q^k,) int64.
    """
    idx = list(blocks)
    if table.packed is not None:
        diff = table.packed[:, idx, :] ^ received[idx, :][None, :, :]
        return popcount_u64(diff).sum(axis=(1, 2), dtype=np.int64)
    diff = table.values[:, idx, :] != received[idx, :][None, :, :]
    return diff.sum(axis=(1, 2), dtype=np.int64)


def block_distances(table: CodewordTable, received: np.ndarray, blocks: Sequence[int]) -> np.ndarray:
    """Block-metric distances restricted to ``blocks`` (columns that differ)."""
    idx = list(blocks)
    if table.packed is not None:
        diff = table.packed[:, idx, :] ^ received[idx, :][None, :, :]
        union = np.bitwise_or.reduce(diff, axis=1)
        return popcount_u64(union).sum(axis=-1, dtype=np.int64)
    diff = table.values[:, idx, :] != received[idx, :][None, :, :]
    return diff.any(axis=1).sum(axis=-1, dtype=np.int64)
