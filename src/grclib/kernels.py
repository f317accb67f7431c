"""Vectorized exhaustive-enumeration kernels.

Everything distance-related funnels through one engine here:

- ``_span`` builds all q^r combinations of r generator rows in message-index
  order.  It is the only place codewords are built.  GF(2) rows are packed
  into uint64 words and combine by XOR; rows over other fields hold int16
  symbols and combine through the field's add/multiply tables.
- ``_chunks`` splits the q^k messages into chunks: the span of the low rows,
  built once and transposed so each word or symbol is one contiguous row,
  plus one combination of the high rows per chunk.
- ``_sweep`` turns each chunk into block-major support masks of shape
  (m, W, C): C codewords, W words per block, bit j of word w set when
  symbol b*w + j of the block is nonzero, for words of b bits.  Each
  (block, word) row is contiguous over the codewords, so every ufunc runs
  its inner loop over a whole chunk.  Over GF(2) the words are the packed
  codewords themselves: uint64, or the narrowest unsigned dtype that holds
  a block of at most 64 symbols.  Over other fields they are uint8 bytes.
  A block may span several words, so block length is not limited.

Buffer contract: ``_sweep`` writes every chunk into buffers it allocates
once per sweep and yields the same array each time, so a consumer
finishes with one chunk before it asks for the next.  Buffers belong to
one sweep, never to the module, so concurrent sweeps share nothing.

Two reducers consume the masks: the per-subset fold behind the distance
profiles, and the union over all blocks behind single-metric distances and
weight histograms.  Both count weights in the smallest unsigned dtype that
holds them, and take minima over nonzero codewords by wrap-around (see
``_min_nonzero``).  Reductions are deterministic and independent of chunk
boundaries.

Decoding tables (``build_table``) keep their layout here too: a received
word enters it through ``CodewordTable.pack``.
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
# mask words per chunk, a few MB of working set: long enough numpy calls
# that concurrent sweeps do not queue on the interpreter lock between them.
_CHUNK_BUDGET = 1 << 20


class DimensionCapError(Exception):
    """Enumeration over q^k refused because k exceeds the configured cap."""


def check_cap(k: int, cap: int | None) -> None:
    limit = DEFAULT_CAP if cap is None else cap
    if k > limit:
        raise DimensionCapError(
            f"dimension {k} above enumeration cap {limit}; raise cap explicitly"
        )


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


def _chunks(field: Field, rows: np.ndarray, chunk_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(low, highs): chunk t's codewords are low + highs[t].

    ``low`` is the span of the first lo rows, with q^lo <= max(q, chunk_rows),
    transposed to (width, q^lo) so that each word or symbol is one
    contiguous row.  ``highs`` holds the combinations of the remaining rows,
    one per chunk, so chunk t covers message indices [t * q^lo, (t+1) * q^lo).
    """
    q = field.q
    k = len(rows)
    lo = 1
    while lo < k and q ** (lo + 1) <= chunk_rows:
        lo += 1
    low = np.ascontiguousarray(_span(field, rows[:lo]).T)
    return low, _span(field, rows[lo:])


def _sweep(field: Field, rows: Sequence[Sequence[int]], m: int) -> Iterator[np.ndarray]:
    """Block-major support masks (m, W, C) of all q^k codewords, per chunk.

    The same buffer is yielded for every chunk.  Over GF(2) the words are
    the packed codewords, in the narrowest unsigned dtype that holds a block
    when one word does.  Over other fields, ``low + high`` is nonzero exactly
    where ``low`` differs from ``-high``, and the 0/1 bytes of that test are
    shifted into bits eight codewords at a time, through uint64 views of
    rows padded to a multiple of 8 codewords.
    """
    blocks = _rows_to_blocks(rows, m)
    k, _, nb = blocks.shape
    if field.q == 2:
        packed = _pack_bits(blocks).reshape(k, -1)
        if packed.shape[1] == m:
            packed = packed.astype(np.min_scalar_type((1 << nb) - 1))
        low, highs = _chunks(field, packed, _CHUNK_BUDGET // packed.shape[1])
        masks = np.empty_like(low)
        for high in highs:
            np.bitwise_xor(low, high[:, None], out=masks)
            yield masks.reshape(m, -1, masks.shape[1])
        return
    _, mul = field.tables()
    neg = mul[field.neg(1)]
    nw = (nb + 7) // 8
    low, highs = _chunks(field, blocks.reshape(k, m * nb), _CHUNK_BUDGET // (m * nw))
    c = low.shape[1]
    low = low.reshape(m, nb, c)
    c8 = -(-c // 8)
    nonzero = np.zeros((m, 8 * nw, 8 * c8), dtype=bool)  # padding stays False
    # bits[:, w, j] holds symbol 8*w + j of eight codewords per uint64
    bits = nonzero.view(np.uint64).reshape(m, nw, 8, c8)
    masks = np.empty((m, nw, 8 * c8), dtype=np.uint8)
    words, shifted = masks.view(np.uint64), np.empty((m, nw, c8), dtype=np.uint64)
    for high in highs:
        np.not_equal(low, neg[high].reshape(m, nb, 1), out=nonzero[:, :nb, :c])
        np.copyto(words, bits[:, :, 0])
        for j in range(1, min(8, nb)):
            np.left_shift(bits[:, :, j], j, out=shifted)
            words |= shifted
        yield masks[:, :, :c]


def _weights(words: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Set bits of (W, C) words, summed over W into ``out`` (C,)."""
    np.bitwise_count(words[0], out=out)
    for row in words[1:]:
        np.bitwise_count(row, out=tmp)
        out += tmp
    return out


def _min_nonzero(w: np.ndarray, out: np.ndarray) -> int:
    """Least nonzero entry of the unsigned weights ``w``, _INF if none.

    ``w - 1`` (written to ``out``) wraps 0 to the dtype's maximum.  Weights
    are counted in a dtype that holds the largest one, so no nonzero weight
    minus 1 reaches that maximum, and a plain ``min`` skips the zeros.
    """
    least = int(np.subtract(w, 1, out=out).min())
    return _INF if least == (1 << 8 * w.itemsize) - 1 else least + 1


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
    _fold_subsets(_sweep(field, rows, m), np.min_scalar_type(len(rows[0])), block_min, ham_min)
    return block_min, ham_min


def _fold_subsets(
    chunks: Iterator[np.ndarray], dtype: np.dtype, block_min: np.ndarray, ham_min: np.ndarray
) -> None:
    """Fold the masks (m, W, C) of every chunk into the per-subset minima.

    Subsets are visited depth first, in lexicographic order of their block
    lists, so a subset of d + 1 blocks extends the subset visited last at
    depth d by its highest block i.  One union (W, C) and one Hamming weight
    (C,) per depth are live, and each subset costs one OR, one popcount and
    one add.  A subset's Hamming weight is zero exactly where its union is,
    so both minima skip zero codewords the same way.
    """
    bw = None
    for masks in chunks:
        m, nw, c = masks.shape
        if bw is None:
            order = sorted(range(1, 1 << m), key=lambda t: [i for i in range(m) if t >> i & 1])
            bw = np.empty((m, c), dtype)  # Hamming weight of each block
            union_bufs = np.empty((m - 1, nw, c), masks.dtype)
            ham_bufs = np.empty((m - 1, c), dtype)
            w, tmp = np.empty((2, c), dtype)
        for i in range(m):
            _weights(masks[i], bw[i], tmp)
        unions: list = [None] * m  # union and Hamming weight of the last subset at each depth
        hams: list = [None] * m
        for t in order:
            i, d = t.bit_length() - 1, t.bit_count() - 1
            if d == 0:  # single block: block weight = Hamming weight
                unions[0], hams[0] = masks[i], bw[i]
                block = ham = _min_nonzero(bw[i], w)
            else:
                unions[d] = np.bitwise_or(unions[d - 1], masks[i], out=union_bufs[d - 1])
                hams[d] = np.add(hams[d - 1], bw[i], out=ham_bufs[d - 1])
                block = _min_nonzero(_weights(unions[d], w, tmp), w)
                ham = _min_nonzero(hams[d], tmp)
            block_min[t] = min(int(block_min[t]), block)
            ham_min[t] = min(int(ham_min[t]), ham)


# ---------------------------------------------------------------------------
# single-metric sweeps: the union over all blocks


def _block_weights(field: Field, rows: Sequence[Sequence[int]], m: int) -> Iterator[np.ndarray]:
    """Block weight (C,) of every codeword, per chunk, in one reused buffer."""
    dtype = np.min_scalar_type(len(rows[0]) // m)
    w = None
    for masks in _sweep(field, rows, m):
        if w is None:
            union = np.empty(masks.shape[1:], masks.dtype)
            w, tmp = np.empty((2, masks.shape[2]), dtype)
        if m > 1:
            np.bitwise_or.reduce(masks, axis=0, out=union)
        yield _weights(union if m > 1 else masks[0], w, tmp)


def min_block_distance(
    field: Field,
    rows: Sequence[Sequence[int]],
    m: int,
    *,
    cap: int | None = None,
) -> int:
    """Minimum block weight over nonzero codewords (m = 1: Hamming)."""
    check_cap(len(rows), cap)
    best = _INF
    for w in _block_weights(field, rows, m):
        best = min(best, _min_nonzero(w, w))
    if best == _INF:
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
    for w in _block_weights(field, rows, m):
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
            return tuple(self.values[index].reshape(-1).tolist())
        words = self.packed[index].view(np.uint8)  # (m, 8 Wb), little-endian bits
        bits = np.unpackbits(words, axis=-1, count=self.nb, bitorder="little")
        return tuple(bits.reshape(-1).tolist())

    def pack(self, vec: Sequence[int]) -> np.ndarray:
        """Whole blocks of a received word in the table's layout, one row per
        block, for the distance kernels: (len(vec) / nb, Wb) uint64 over
        GF(2), (len(vec) / nb, nb) int16 otherwise."""
        if self.values is not None:
            return np.array(vec, dtype=np.int16).reshape(-1, self.nb)
        return _pack_bits(np.array(vec, dtype=np.uint8).reshape(-1, self.nb))


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


def hamming_distances(table: CodewordTable, received: np.ndarray, blocks: Sequence[int]) -> np.ndarray:
    """Distance from ``received`` to every codeword, restricted to ``blocks``.

    received: rows from ``CodewordTable.pack``.  Returns (q^k,) int64.
    """
    idx = list(blocks)
    if table.packed is not None:
        diff = table.packed[:, idx, :] ^ received[idx, :][None, :, :]
        return np.bitwise_count(diff).sum(axis=(1, 2), dtype=np.int64)
    diff = table.values[:, idx, :] != received[idx, :][None, :, :]
    return diff.sum(axis=(1, 2), dtype=np.int64)


def block_distances(table: CodewordTable, received: np.ndarray, blocks: Sequence[int]) -> np.ndarray:
    """Block-metric distances restricted to ``blocks`` (columns that differ)."""
    idx = list(blocks)
    if table.packed is not None:
        diff = table.packed[:, idx, :] ^ received[idx, :][None, :, :]
        union = np.bitwise_or.reduce(diff, axis=1)
        return np.bitwise_count(union).sum(axis=-1, dtype=np.int64)
    diff = table.values[:, idx, :] != received[idx, :][None, :, :]
    return diff.any(axis=1).sum(axis=-1, dtype=np.int64)
