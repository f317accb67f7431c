"""Vectorized exhaustive-enumeration kernels.

Everything distance-related funnels through one engine and one codeword
layout here:

- ``_span`` builds all q^r combinations of r generator rows in message-index
  order.  It is the only place codewords are built.  GF(2) rows are packed
  into words and combine by XOR; rows over other fields hold int16 symbols
  and combine through the field's add/multiply tables.
- ``build_table`` lays the q^k codewords out in chunks, as a
  ``CodewordTable``: the span of the low rows, built once and transposed so
  each (block, word) or (block, symbol) is one contiguous row, plus one
  combination of the high rows per chunk.  Over GF(2) the words are uint64,
  or the narrowest unsigned dtype that holds a block of at most 64 symbols.
- ``_sweep`` turns each chunk into block-major support masks of shape
  (m, W, C): C codewords, W words per block, bit j of word w set when
  symbol b*w + j of the block is nonzero, for words of b bits.  Each
  (block, word) row is contiguous over the codewords, so every ufunc runs
  its inner loop over a whole chunk.  Over GF(2) the masks are the packed
  codewords themselves; over other fields they are uint8 bytes.  A block
  may span several words, so block length is not limited.

Decoding sweeps the same table.  The distances from a received word r are
the weights of the coset c - r, and r, packed like one more generator row,
is subtracted from the high combinations before the sweep starts.

Buffer contract: ``_sweep`` writes every chunk into buffers it allocates
once per sweep and yields the same array each time, so a consumer
finishes with one chunk before it asks for the next.  Buffers belong to
one sweep, never to the module or to a table, so concurrent sweeps,
decoding sweeps of one shared table included, share nothing they write.

Three reducers consume the masks: the per-subset fold behind the distance
profiles, the union over all blocks behind single-metric distances and
weight histograms, and the per-codeword distances of a decode.  All count
weights in the smallest unsigned dtype that holds them; minima over nonzero
codewords are taken by wrap-around (see ``_min_nonzero``).  Reductions are
deterministic and independent of chunk boundaries.  The one exception is a
fold given floors (``subset_minima(floor=)``): it stops at the end of a
chunk, so the upper bounds it returns depend on where chunks end.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

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


def _pack_rows(field: Field, rows: Sequence[Sequence[int]], m: int) -> np.ndarray:
    """Rows of m blocks each as (r, m, W): packed words over GF(2), in the
    narrowest unsigned dtype that holds a block when one word does; int16
    symbols (W = block length) over other fields."""
    arr = np.array(rows, dtype=np.int16)
    r, length = arr.shape
    if length % m:
        raise ValueError(f"length {length} not divisible by block count {m}")
    blocks = arr.reshape(r, m, length // m)
    if field.q != 2:
        return blocks
    packed = _pack_bits(blocks)
    if packed.shape[2] == 1:
        return packed.astype(np.min_scalar_type((1 << blocks.shape[2]) - 1))
    return packed


# ---------------------------------------------------------------------------
# the enumeration engine


class CodewordTable(NamedTuple):
    """All q^k codewords of a blocked code, in chunks of message indices.

    Chunk t holds the codewords ``low + highs[t]``, the message indices
    [t * C, (t + 1) * C).  ``low`` (m, W, C) is the span of the low rows,
    each (block, word) row contiguous over the C codewords; ``highs``
    (q^k / C, m, W) holds the combinations of the high rows.  Message index
    digits in base q (little-endian) are the message symbols.
    """

    field: Field
    low: np.ndarray
    highs: np.ndarray

    @property
    def size(self) -> int:
        return self.low.shape[2] * len(self.highs)

    def message(self, index: int) -> tuple[int, ...]:
        q, size, span, out = self.field.q, self.size, 1, []
        while span < size:
            out.append(index % q)
            index //= q
            span *= q
        return tuple(out)


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


def build_table(
    field: Field, rows: Sequence[Sequence[int]], m: int, *, cap: int | None = None
) -> CodewordTable:
    """The codewords of ``rows``, read as m blocks, in chunks of at most
    ``_CHUNK_BUDGET`` mask words: the low rows are the first lo, with
    q^lo <= max(q, codewords per chunk)."""
    check_cap(len(rows), cap)
    packed = _pack_rows(field, rows, m)
    k, _, width = packed.shape
    words = width if field.q == 2 else (width + 7) // 8  # mask words per block
    lo = 1
    while lo < k and field.q ** (lo + 1) <= _CHUNK_BUDGET // (m * words):
        lo += 1
    flat = packed.reshape(k, m * width)
    low = np.ascontiguousarray(_span(field, flat[:lo]).T).reshape(m, width, -1)
    return CodewordTable(field, low, _span(field, flat[lo:]).reshape(-1, m, width))


def _sweep(field: Field, low: np.ndarray, highs: np.ndarray) -> Iterator[np.ndarray]:
    """Block-major support masks (m, W, C) of ``low + high`` for each high.

    The same buffer is yielded for every chunk.  Over GF(2) the masks are
    the packed words.  Over other fields, ``low + high`` is nonzero exactly
    where ``low`` differs from ``-high``, and the 0/1 bytes of that test are
    shifted into bits eight codewords at a time, through uint64 views of
    rows padded to a multiple of 8 codewords.
    """
    m, nb, c = low.shape
    if field.q == 2:
        masks = np.empty_like(low)
        for high in highs:
            np.bitwise_xor(low, high[:, :, None], out=masks)
            yield masks
        return
    _, mul = field.tables()
    neg = mul[field.neg(1)]
    nw = (nb + 7) // 8
    c8 = -(-c // 8)
    nonzero = np.zeros((m, 8 * nw, 8 * c8), dtype=bool)  # padding stays False
    # bits[:, w, j] holds symbol 8*w + j of eight codewords per uint64
    bits = nonzero.view(np.uint64).reshape(m, nw, 8, c8)
    masks = np.empty((m, nw, 8 * c8), dtype=np.uint8)
    words, shifted = masks.view(np.uint64), np.empty((m, nw, c8), dtype=np.uint64)
    for high in highs:
        np.not_equal(low, neg[high][:, :, None], out=nonzero[:, :nb, :c])
        np.copyto(words, bits[:, :, 0])
        for j in range(1, min(8, nb)):
            np.left_shift(bits[:, :, j], j, out=shifted)
            words |= shifted
        yield masks[:, :, :c]


def _weights(words: Sequence[np.ndarray], out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Set bits of W rows of C words, summed over W into ``out`` (C,)."""
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
    floor: tuple[Sequence[int], Sequence[int]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimum block and Hamming weights of every nonempty block-subset.

    Returns (block_min, ham_min), each of length 2^m and indexed by the
    subset bitmask (bit i = block i+1 present).  Entry 0 and subsets whose
    projection is identically zero hold the _INF sentinel.

    ``floor`` = (block_floor, ham_floor), one entry per subset indexed like
    the result, stops the sweep after the first chunk in which some running
    minimum falls below its floor.  Minima only fall as chunks are folded,
    so the codeword found there is a witness that the true minimum is below
    the floor too.  When the sweep stops early the returned minima are upper
    bounds and at least one is below its floor; when none is below its
    floor, the sweep ran to the end and the minima are exact.  An entry of
    0 never stops the sweep.  Without a floor every chunk is folded.
    """
    if m > 16:
        raise ValueError("block count above 16 not supported for profiles")
    block_min = np.full(1 << m, _INF, dtype=np.int64)
    ham_min = np.full(1 << m, _INF, dtype=np.int64)
    chunks = _sweep(*build_table(field, rows, m, cap=cap))
    block_floor, ham_floor = (0, 0) if floor is None else floor
    for _ in _fold_subsets(chunks, np.min_scalar_type(len(rows[0])), block_min, ham_min):
        if (block_min < block_floor).any() or (ham_min < ham_floor).any():
            break
    return block_min, ham_min


def _fold_subsets(
    chunks: Iterator[np.ndarray], dtype: np.dtype, block_min: np.ndarray, ham_min: np.ndarray
) -> Iterator[None]:
    """Fold the masks (m, W, C) of every chunk into the per-subset minima,
    yielding once each chunk's fold is complete.

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
        yield


# ---------------------------------------------------------------------------
# single-metric sweeps: the union over all blocks


def _block_weights(
    field: Field, rows: Sequence[Sequence[int]], m: int, cap: int | None
) -> Iterator[np.ndarray]:
    """Block weight (C,) of every codeword, per chunk, in one reused buffer."""
    dtype = np.min_scalar_type(len(rows[0]) // m)
    w = None
    for masks in _sweep(*build_table(field, rows, m, cap=cap)):
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
    best = _INF
    for w in _block_weights(field, rows, m, cap):
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
    nb_cols = len(rows[0]) // m
    counts = np.zeros(nb_cols + 1, dtype=np.int64)
    for w in _block_weights(field, rows, m, cap):
        counts += np.bincount(w, minlength=nb_cols + 1)
    return counts


# ---------------------------------------------------------------------------
# decoding: distances from a received word to every codeword


def _distances(
    table: CodewordTable, received: Sequence[int], blocks: Sequence[int], union: bool
) -> np.ndarray:
    """Weights of c - r on the 0-based ``blocks`` for every codeword c, in
    message-index order: summed over the blocks, or of their union.

    Only blocks min(blocks)..max(blocks) are swept.  ``received`` holds all
    m blocks; subtracting it from the high combinations makes every chunk
    a chunk of the coset c - r.
    """
    field, low, highs = table
    first, last = min(blocks), max(blocks) + 1
    r = _pack_rows(field, [received], low.shape[0])[0, first:last]
    if field.q == 2:
        shifted = highs[:, first:last] ^ r
    else:
        add, mul = field.tables()
        shifted = add[highs[:, first:last], mul[field.neg(1)][r]]
    c = low.shape[2]
    dist = None
    for t, masks in enumerate(_sweep(field, low[first:last], shifted)):
        picked = [masks[b - first] for b in blocks]
        if dist is None:
            bits = masks.shape[1] * 8 * masks.itemsize * (1 if union else len(picked))
            dist = np.empty(table.size, np.min_scalar_type(bits))
            tmp = np.empty(c, dist.dtype)
            either = np.empty(masks.shape[1:], masks.dtype)
        if union and len(picked) > 1:
            np.bitwise_or(picked[0], picked[1], out=either)
            for block in picked[2:]:
                either |= block
            picked = [either]
        _weights([row for block in picked for row in block], dist[t * c : (t + 1) * c], tmp)
    return dist


def hamming_distances(table: CodewordTable, received: Sequence[int], blocks: Sequence[int]) -> np.ndarray:
    """Hamming distance from ``received`` (all m blocks) to every codeword,
    on the 0-based ``blocks``, in the smallest unsigned dtype that holds it."""
    return _distances(table, received, blocks, union=False)


def block_distances(table: CodewordTable, received: Sequence[int], blocks: Sequence[int]) -> np.ndarray:
    """Block-metric distances on ``blocks``: the columns where some chosen
    block of the codeword differs from ``received``."""
    return _distances(table, received, blocks, union=True)
