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
- ``_coset_masks`` is the one sweep.  For a group of received words r it
  turns each chunk into block-major support masks of c - r, shaped
  (f, blocks, W, C): f words, C codewords, W words per block, bit j of word
  w set when symbol b*w + j of the block is nonzero, for words of b bits.
  Each (block, word) row is contiguous over the codewords, so every ufunc
  runs its inner loop over a whole chunk.  Over GF(2) the masks are packed
  words like the codewords; over other fields they are uint8 bytes.  A
  block may span several words, so block length is not limited.  r,
  packed like one more generator row, is subtracted from the high
  combinations, which makes every chunk a chunk of r's coset.

An enumeration is the sweep of one coset, the zero word's, which is the
code itself.  Two reducers consume the masks:

- the per-subset fold (``_fold_subsets``) behind the distance profiles;
- the coset weights (``_coset_weights``), summed over the blocks or of their
  union.  Read for the zero word they are the codewords' weights, behind
  single-metric distances and weight histograms; read for received words
  they are the distances of a decode, and each word keeps a running argmin
  over the chunks (``nearest``).

Both count weights in the smallest unsigned dtype that holds them; minima
over nonzero codewords are taken by wrap-around (see ``_min_nonzero``).
Reductions are deterministic and independent of chunk boundaries.  The one
exception is a fold given floors (``subset_minima(floor=)``): it stops at
the end of a chunk, so the upper bounds it returns depend on where chunks
end.

Buffer contract: ``_coset_masks`` writes every chunk into buffers it
allocates once per sweep and yields the same array each time, and the
reducers' buffers are reused the same way, so a consumer finishes with one
chunk before it asks for the next.  Buffers belong to one sweep, never to
the module or to a table, so concurrent sweeps, decoding sweeps of one
shared table included, share nothing they write.

One block can also be decoded by syndrome (the standard array):
``coset_leaders`` tabulates every minimum-weight coset leader of a block
code, and ``CosetLeaders.decode`` returns for each word the index that
``nearest`` returns on that block, from the leaders of its coset alone.

Several blocks can be decoded by information sets (Prange's method, with
the stopping rule of Brouwer and Zimmermann): ``info_sets`` picks disjoint
information sets of the code on those blocks, and ``isd_nearest`` returns
the index and distance that ``nearest`` returns, from the codewords that
agree with a word on all but w symbols of some set, for w = 0, 1, ...
until no codeword left can be as near.  The patterns of weight w of every
set are one table for ``_coset_masks``, so they are swept like codewords.
A word that would need more patterns than the q^k codewords is swept.
"""

from __future__ import annotations

import math
import mmap
import threading
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .fields import Field
from .matrices import Matrix

__all__ = [
    "DEFAULT_CAP",
    "DimensionCapError",
    "subset_minima",
    "hierarchies",
    "min_block_distance",
    "weight_histogram",
    "CodewordTable",
    "build_table",
    "table_layout",
    "message_digits",
    "message_index",
    "pack_rows",
    "nearest",
    "CosetLeaders",
    "coset_leaders",
    "InfoSets",
    "info_sets",
    "isd_nearest",
]

DEFAULT_CAP = 28
_INF = np.iinfo(np.int64).max
# mask words per chunk, a few MB of working set: long enough numpy calls
# that concurrent sweeps do not queue on the interpreter lock between them.
_CHUNK_BUDGET = 1 << 20
_HUGE_PAGE = 1 << 21


class DimensionCapError(Exception):
    """Enumeration over q^k refused because q^k exceeds 2^cap."""


def cap_limit(cap: int | None) -> int:
    """The largest log2 of a codeword count that enumeration under ``cap``
    accepts: over GF(2), the largest dimension."""
    return DEFAULT_CAP if cap is None else cap


def check_cap(q: int, k: int, cap: int | None) -> None:
    """Refuse an enumeration of q^k codewords above 2^cap."""
    limit = cap_limit(cap)
    if (q**k - 1).bit_length() > limit:  # q^k > 2^limit
        raise DimensionCapError(
            f"{q}^{k} codewords above enumeration cap 2^{limit}; raise cap explicitly"
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


def _unpack_bits(words: np.ndarray, nbits: int) -> np.ndarray:
    """The inverse of ``_pack_bits`` for words of any unsigned dtype:
    (..., W) words to (..., nbits) 0/1 bytes."""
    octets = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=nbits, bitorder="little")


def pack_rows(field: Field, rows: Sequence[Sequence[int]], m: int) -> np.ndarray:
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
    (q^k / C, m, W) holds the combinations of the high rows.  A message
    index's base-q digits (``message_digits``) are the message symbols.
    """

    field: Field
    low: np.ndarray
    highs: np.ndarray

    @property
    def size(self) -> int:
        return self.low.shape[2] * len(self.highs)

    @property
    def group(self) -> int:
        """Received words that ``_coset_masks`` sweeps together (``_group``)."""
        m, nb, c = self.low.shape
        return _group(m, nb if self.field.q == 2 else (nb + 7) // 8, c)

    def codewords(self, index: np.ndarray, length: int) -> np.ndarray:
        """The codewords of the message indices, as (F, m, length) symbols:
        codeword i is ``low[..., i mod C]`` combined with ``highs[i // C]``."""
        c = self.low.shape[2]
        low, high = self.low[:, :, index % c].transpose(2, 0, 1), self.highs[index // c]
        if self.field.q == 2:
            return _unpack_bits(low ^ high, length)
        add, _ = self.field.tables()
        return add[low, high]


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


def message_digits(q: int, index: np.ndarray, k: int) -> np.ndarray:
    """The k base-q digits (..., k), little-endian, of each of ``index``: of
    a message index, the message that ``_span`` numbers so."""
    return index[..., None] // q ** np.arange(k, dtype=np.int64) % q


def message_index(q: int, digits: np.ndarray) -> np.ndarray:
    """The inverse of ``message_digits``: the base-q integers of ``digits``."""
    return digits @ q ** np.arange(digits.shape[-1], dtype=np.int64)


def _group(m: int, words: int, c: int) -> int:
    """Received words that ``_coset_masks`` sweeps together over chunks of C
    codewords in m blocks of ``words`` mask words each: f of them, with
    f * m * words * C within a quarter of ``_CHUNK_BUDGET``."""
    return max(1, _CHUNK_BUDGET // (4 * m * words * c))


def table_layout(q: int, k: int, m: int, n: int) -> tuple[int, int]:
    """The low-row count lo of ``build_table`` on a code of q^k codewords in
    m blocks of n symbols, the largest with q^lo <= max(q, codewords per
    chunk of ``_CHUNK_BUDGET`` mask words), and the table's ``group``; both
    known before, or without, building the table."""
    words = -(-n // 64) if q == 2 else -(-n // 8)  # mask words per block
    lo = 1
    while lo < k and q ** (lo + 1) <= _CHUNK_BUDGET // (m * words):
        lo += 1
    return lo, _group(m, words, q**lo)


def build_table(
    field: Field, rows: Sequence[Sequence[int]], m: int, *, cap: int | None = None
) -> CodewordTable:
    """The codewords of ``rows``, read as m blocks, in chunks of q^lo
    codewords, the low rows being the first lo (``table_layout``)."""
    packed = pack_rows(field, rows, m)
    check_cap(field.q, len(rows), cap)
    k, _, width = packed.shape
    lo, _ = table_layout(field.q, k, m, len(rows[0]) // m)
    flat = packed.reshape(k, m * width)
    span = _span(field, flat[:lo])
    low = _fresh_pages(span.shape[::-1], span.dtype)
    low[...] = span.T
    highs = _span(field, flat[lo:]).reshape(-1, m, width)
    return CodewordTable(field, low.reshape(m, width, -1), highs)


def _fresh_pages(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """An uninitialised array that, from 2 MiB up, lives in fresh anonymous
    memory starting on a 2 MiB boundary and advised for huge pages.  Heap
    pages reused from earlier work may be small pages, and a table sweep on
    them runs measurably slower.  Platforms without MADV_HUGEPAGE get
    ``np.empty``."""
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes < _HUGE_PAGE or not hasattr(mmap, "MADV_HUGEPAGE"):
        return np.empty(shape, dtype)
    # private: a shared anonymous mapping is shared memory, which the kernel
    # backs with huge pages under a different setting
    buf = mmap.mmap(-1, nbytes + _HUGE_PAGE, flags=mmap.MAP_PRIVATE)
    offset = -np.frombuffer(buf, np.uint8).ctypes.data % _HUGE_PAGE
    buf.madvise(mmap.MADV_HUGEPAGE, offset, nbytes)
    return np.frombuffer(buf, dtype, math.prod(shape), offset).reshape(shape)


def _coset_masks(
    table: CodewordTable, words: np.ndarray, blocks: Sequence[int]
) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Block-major support masks (f, len(blocks), W, C) of c - r on the
    0-based ``blocks``, for every codeword c of each chunk and every received
    word r of each group of f words.

    ``words`` (F, len(blocks), W) holds the received words packed on those
    blocks, as ``pack_rows`` packs them; an enumeration passes the zero word
    (``_zero_coset``).  Words go in groups of f with f * m * W * C within a
    quarter of ``_CHUNK_BUDGET`` for the table's m blocks: a group's masks
    are reduced while they are still in cache, and a Golay k = 12, m = 4
    group of 16 words decodes as fast per word as one of 64 with a quarter
    of the peak memory.  Yields (rows of ``words``, chunk index, masks) per
    group and chunk.

    Buffers are allocated for the first group, the last (shorter) group is
    written to their leading rows, and the same buffer is yielded for every
    chunk.  Over GF(2) the masks are the packed words of c - r.  Over other
    fields, c - r = low + (high - r) is nonzero exactly where ``low``
    differs from r - high, and the 0/1 bytes of that test are shifted into
    bits eight codewords at a time, through uint64 views of rows padded to a
    multiple of 8 codewords.
    """
    field, low, highs = table
    _, nb, c = low.shape
    group = table.group
    blocks = list(blocks)
    first, mb = blocks[0], len(blocks)
    picked = slice(first, first + mb) if blocks == list(range(first, first + mb)) else blocks
    low, highs = low[picked], highs[:, picked]
    f = min(group, len(words))
    if field.q == 2:
        buf = np.empty((f, mb, nb, c), low.dtype)
        for g in range(0, len(words), group):
            r = words[g : g + group]
            rows, masks = slice(g, g + len(r)), buf[: len(r)]
            for t, coset in enumerate(highs[:, None] ^ r):  # high - r for every chunk
                np.bitwise_xor(low, coset[..., None], out=masks)
                yield rows, t, masks
        return
    add, mul = field.tables()
    neg_highs = mul[field.neg(1)][highs]
    nw, c8 = (nb + 7) // 8, -(-c // 8)
    buf = np.zeros((f, mb, 8 * nw, 8 * c8), dtype=bool)  # padding stays False
    # bits[..., w, j, :] holds symbol 8*w + j of eight codewords per uint64
    bits = buf.view(np.uint64).reshape(f, mb, nw, 8, c8)
    masks = np.empty((f, mb, nw, 8 * c8), dtype=np.uint8)
    packed, shifted = masks.view(np.uint64), np.empty((f, mb, nw, c8), dtype=np.uint64)
    for g in range(0, len(words), group):
        r = words[g : g + group]
        rows, fr = slice(g, g + len(r)), slice(len(r))
        nonzero, out, tmp = buf[fr, :, :nb, :c], packed[fr], shifted[fr]
        planes = [bits[fr, :, :, j, :] for j in range(min(8, nb))]
        group_masks = masks[fr, ..., :c]
        for t, target in enumerate(add[r, neg_highs[:, None]]):  # r - high for every chunk
            np.not_equal(low, target[..., None], out=nonzero)
            np.copyto(out, planes[0])
            for j in range(1, len(planes)):
                np.left_shift(planes[j], j, out=tmp)
                out |= tmp
            yield rows, t, group_masks


def _zero_coset(
    field: Field, rows: Sequence[Sequence[int]], m: int, cap: int | None
) -> tuple[CodewordTable, np.ndarray, range]:
    """The table, words and blocks for ``_coset_masks`` that sweep the coset
    of the zero word on all m blocks, which is the code itself."""
    table = build_table(field, rows, m, cap=cap)
    return table, np.zeros((1,) + table.highs.shape[1:], table.highs.dtype), range(m)


def _coset_weights(
    table: CodewordTable, words: np.ndarray, blocks: Sequence[int], union: bool, sets: int = 1
) -> Iterator[tuple[slice, int, np.ndarray]]:
    """Weights (f, C) of the masks ``_coset_masks`` yields for the same
    arguments: summed over the blocks, or of their union.  With ``sets`` > 1
    the blocks are that many equal runs, weighed each on its own, and the
    weights are (f, sets C), run i at [i C, (i + 1) C).  Yields (rows of
    ``words``, chunk index, weights) in one reused buffer."""
    dist = None
    for rows, t, masks in _coset_masks(table, words, blocks):
        f, _, nw, c = masks.shape
        masks = masks.reshape(f, sets, -1, nw, c)
        mb = masks.shape[2]
        if dist is None:
            either = np.empty((f, sets, nw, c), masks.dtype) if union and mb > 1 else None
            bits = nw * 8 * masks.itemsize * (1 if union else mb)
            dist, tmp = np.empty((2, f, sets, c), np.min_scalar_type(bits))
        if either is not None:
            u = np.bitwise_or(masks[:, :, 0], masks[:, :, 1], out=either[:f])
            for b in range(2, mb):
                np.bitwise_or(u, masks[:, :, b], out=u)
            parts = [u[:, :, w] for w in range(nw)]
        else:
            parts = [masks[:, :, b, w] for b in range(mb) for w in range(nw)]
        yield rows, t, _weights(parts, dist[:f], tmp[:f]).reshape(f, sets * c)


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
    chunks = (masks[0] for _, _, masks in _coset_masks(*_zero_coset(field, rows, m, cap)))
    block_floor, ham_floor = (0, 0) if floor is None else floor
    for _ in _fold_subsets(chunks, np.min_scalar_type(len(rows[0])), block_min, ham_min):
        if (block_min < block_floor).any() or (ham_min < ham_floor).any():
            break
    return block_min, ham_min


def hierarchies(
    block_min: np.ndarray, ham_min: np.ndarray
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(SBDH, SHDH) read off ``subset_minima``'s result: entry r - 1 of each
    is the least minimum over the subsets of r blocks."""
    size = np.array([bin(t).count("1") for t in range(len(block_min))])
    sbdh, shdh = [], []
    for r in range(1, size[-1] + 1):
        b, h = int(block_min[size == r].min()), int(ham_min[size == r].min())
        if b == _INF:
            raise ValueError(f"every size-{r} projection is zero; profile undefined")
        sbdh.append(b)
        shdh.append(h)
    return tuple(sbdh), tuple(shdh)


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
# single-metric sweeps: the union over all blocks of the zero word's coset


def min_block_distance(
    field: Field,
    rows: Sequence[Sequence[int]],
    m: int,
    *,
    cap: int | None = None,
) -> int:
    """Minimum block weight over nonzero codewords (m = 1: Hamming)."""
    best = _INF
    for _, _, w in _coset_weights(*_zero_coset(field, rows, m, cap), union=True):
        best = min(best, _min_nonzero(w[0], w[0]))
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
    for _, _, w in _coset_weights(*_zero_coset(field, rows, m, cap), union=True):
        counts += np.bincount(w[0], minlength=nb_cols + 1)
    return counts


# ---------------------------------------------------------------------------
# decoding: distances from received words to every codeword


def nearest(
    table: CodewordTable, words: np.ndarray, blocks: Sequence[int], union: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Message index and distance of the codeword nearest to each received
    word of ``words`` (F, len(blocks), W), packed on the 0-based ``blocks``:
    the distance summed over the blocks (Hamming), or of their union (block
    metric).  Ties go to the smallest message index."""
    c = table.low.shape[2]
    best = np.full(len(words), _INF, dtype=np.int64)
    index = np.zeros(len(words), dtype=np.int64)
    for rows, t, dist in _coset_weights(table, words, blocks, union):
        at = dist.argmin(axis=1)
        d = dist[np.arange(len(at)), at]
        better = d < best[rows]  # strictly: an earlier chunk holds smaller indices
        best[rows] = np.where(better, d, best[rows])
        index[rows] = np.where(better, at + t * c, index[rows])
    return index, best


# ---------------------------------------------------------------------------
# decoding one block by syndrome: the standard array


class CosetLeaders(NamedTuple):
    """Every minimum-weight coset leader of an [n, k] block code, by
    syndrome, as ``coset_leaders`` builds it.

    A word w has a syndrome s(w), n - k symbols that vanish exactly on the
    code, and a message u(w), k symbols that are the message of w when w is
    a codeword.  Both are GF(q)-linear, and both are held as base-q
    integers, numbered like message indices.  ``maps`` (n e, n e) computes
    them on base-p digits, on which a GF(q)-linear map is GF(p)-linear: the
    digits of (s(w) | u(w)) are the digits of w times ``maps`` mod p, digit a
    of symbol j at j e + a.  The leaders e of syndrome i are held by their
    messages u(e), rows ``start[i]:start[i + 1]`` of ``leaders``.
    """

    field: Field
    k: int
    maps: np.ndarray
    start: np.ndarray
    leaders: np.ndarray

    def decode(self, symbols: np.ndarray) -> np.ndarray:
        """Message index of the codeword nearest to each word r of
        ``symbols`` (F, n), ties going to the smallest index: the least
        u(r - e) over the leaders e of r's coset.  The -e are the leaders of
        -r's coset, so that is the least u(r) + u(e) over the leaders e of
        s(-r)."""
        p, e, k = self.field.p, self.field.e, self.k
        r = symbols.shape[1] - k
        out = message_digits(p, symbols, e).reshape(len(symbols), -1) @ self.maps % p
        syndrome = message_index(p, -out[:, : r * e] % p)
        message = message_index(p, out[:, r * e :])
        first = self.start[syndrome]
        count = self.start[syndrome + 1] - first  # at least 1: every coset has a leader
        word, rows = _ranges(first, count)
        index = _add(self.field, message[word], self.leaders[rows], k)
        return np.minimum.reduceat(index, np.cumsum(count) - count)


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges [first[i], first[i] + count[i]) end to end, and the i of
    each of their entries."""
    entries = np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)
    return np.repeat(np.arange(len(count)), count), entries


def _add(field: Field, a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    """The sums of vectors of ``width`` symbols held as base-q integers."""
    if field.p == 2:
        return a ^ b  # symbols in base 2 add bit by bit
    q, (add, _) = field.q, field.tables()
    return message_index(q, add[message_digits(q, a, width), message_digits(q, b, width)])


def _digit_map(field: Field, gf_map: np.ndarray) -> np.ndarray:
    """The GF(p) matrix (a e, b e) of the GF(q)-linear map w -> w gf_map,
    gf_map (a, b), on base-p digits: digit d of symbol i at i e + d, row
    i e + d holding the digits of x^d times row i."""
    p, e = field.p, field.e
    a, b = gf_map.shape
    images = field.mul(p ** np.arange(e)[:, None], gf_map[:, None, :])  # (a, e, b)
    return message_digits(p, images, e).reshape(a * e, b * e)


def coset_leaders(field: Field, block: np.ndarray) -> CosetLeaders | None:
    """The coset-leader table of the code spanned by the rows of ``block``
    (k, n), or None when ``block`` has rank below k (a block codeword then
    has several messages) or the code has more leaders than its q^k
    codewords, where sweeping them costs less.

    One rref of [block | I_k] gives both linear maps.  With pivots I and the
    other columns J it reads [R | T], R = T block with R_I = I_k: a word w
    has the syndrome w_J - w_I R_J, and a codeword c the message c_I T.

    Leaders are found breadth first by weight.  Dropping a symbol of a
    minimum-weight member of a coset leaves a minimum-weight member of its
    own coset, so the weight-w leaders are exactly the weight-(w - 1)
    leaders extended by one nonzero symbol above their highest one that land
    in a coset no lighter word reaches.  Each is made once, from itself
    without its highest symbol.
    """
    k, n = block.shape
    q, p, e, r = field.q, field.p, field.e, n - k
    red, pivots = Matrix(field, k, n + k, np.hstack([block, np.eye(k, dtype=np.int64)])).rref()
    if pivots[-1] >= n or r > k:  # every one of the q^r syndromes has a leader
        return None
    info, rest = list(pivots), [j for j in range(n) if j not in pivots]
    gf_map = np.zeros((n, n), dtype=np.int64)  # (s(w) | u(w)) = w gf_map
    gf_map[rest, range(r)] = 1
    gf_map[info, :r] = field.neg(red.data[:, rest])
    gf_map[info, r:] = red.data[:, n:]
    maps = _digit_map(field, gf_map)
    units = field.mul(np.arange(1, q)[:, None], gf_map[:, None, :])  # (n, q - 1, n): v e_j
    unit_s, unit_u = message_index(q, units[..., :r]), message_index(q, units[..., r:])
    weight = np.full(q**r, -1, dtype=np.int16)  # each coset's least weight, -1 until reached
    weight[0] = 0
    s, u, top = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), np.array([-1])
    found_s, found_u = [s], [u]
    count, w = 1, 0
    step = max(1, (1 << 14) // (n * (q - 1)))  # parents per slice
    while (weight < 0).any():
        w += 1
        level = []
        for lo in range(0, len(s), step):
            parent, pos = _ranges(top[lo : lo + step] + 1, n - 1 - top[lo : lo + step])
            parent += lo
            child_s = _add(field, s[parent, None], unit_s[pos], r).ravel()
            reached = weight[child_s]
            keep = (reached < 0) | (reached == w)
            weight[child_s[keep]] = w
            child_u = _add(field, u[parent, None], unit_u[pos], k).ravel()
            level.append((child_s[keep], child_u[keep], np.repeat(pos, q - 1)[keep]))
            count += int(keep.sum())
            if count > q**k:
                return None
        s, u, top = (np.concatenate(part) for part in zip(*level))
        found_s.append(s)
        found_u.append(u)
    syndromes = np.concatenate(found_s)
    start = np.zeros(q**r + 1, dtype=np.int64)
    np.cumsum(np.bincount(syndromes, minlength=q**r), out=start[1:])
    leaders = np.concatenate(found_u)[np.argsort(syndromes)]
    return CosetLeaders(field, k, maps, start, leaders)


# ---------------------------------------------------------------------------
# decoding several blocks by information sets


class InfoSets(NamedTuple):
    """Disjoint information sets of a code read on some of its blocks, as
    ``info_sets`` finds them, and the error patterns ``isd_nearest`` runs
    on them.

    A word on mb blocks of n symbols is (mb, n), flat column b n + j.  Its
    columns are grouped into symbols: each column alone (the Hamming
    metric), or column j of every block (the block metric, ``union``), and
    its distance to a codeword is the number of symbols where they differ.
    Each of the s sets I is k columns on which the generator G is
    invertible, and no two sets share a symbol.  With M = G_I^-1 G and
    A = G_I^-1, the codeword r_I M agrees with the word r on I, and its
    message is r_I A.

    ``pivots`` (s, k) holds each set's columns, and ``maps`` (s, k e,
    (mb n + k) e) the digit maps (``_digit_map``) of r_I to (r_I M | r_I A).
    An error pattern e of weight w is nonzero on w symbols of a set, on
    their columns in it; ``counts[j, w]`` is the number set j has.
    ``atoms[j]`` holds set j's patterns of weight 1, in ascending order of
    their symbols: e M as a table (mb, W, atoms) like ``CodewordTable.low``,
    -e A as a message index, and the rank of e's symbol among the set's.
    ``levels[w]`` (table, messages, tops), built on first use under
    ``lock``, holds the patterns of weight w of every set side by side: set
    j's e M on blocks j mb .. (j + 1) mb - 1 of a table of s mb blocks, and
    their -e A and highest symbol's rank (s, P).  A set with fewer than P
    patterns repeats its first.
    """

    field: Field
    k: int
    union: bool
    pivots: np.ndarray
    maps: np.ndarray
    counts: np.ndarray
    atoms: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    levels: list
    lock: threading.Lock


def info_sets(field: Field, gen: np.ndarray, union: bool) -> InfoSets:
    """Disjoint information sets of the code generated by ``gen`` (k, mb, n),
    in the block metric when ``union`` and the Hamming metric otherwise,
    taken greedily: each is the first k independent columns, in order of
    their symbols, among the symbols that no earlier set holds.  One rref of
    [G_free | G | I_k] finds a set and gives its M and A.  A generator of
    rank below k has no set."""
    k, mb, n = gen.shape
    flat = gen.reshape(k, mb * n).astype(np.int64)
    symbol = np.tile(np.arange(n), mb) if union else np.arange(mb * n)
    order = np.argsort(symbol, kind="stable")  # columns by symbol, then block
    free = np.ones(symbol.max() + 1, dtype=bool)
    pivots, maps, atoms, counts = [], [], [], []
    while True:
        cols = order[free[symbol[order]]]
        joined = np.hstack([flat[:, cols], flat, np.eye(k, dtype=np.int64)])
        red, found = Matrix(field, k, joined.shape[1], joined).rref()
        if found[-1] >= len(cols):  # the free columns have rank below k
            break
        piv = cols[list(found)]
        gf_map = red.data[:, len(cols) :]  # (M | A), row i for pivot i
        atom, count = _atoms(field, mb, symbol[piv], gf_map)
        pivots.append(piv)
        maps.append(_digit_map(field, gf_map))
        atoms.append(atom)
        counts.append(count + [0] * (n * mb - len(count) + 1))
        free[symbol[piv]] = False
    s, e = len(pivots), field.e
    word = pack_rows(field, np.zeros((1, mb * n), dtype=np.int64), mb)
    empty = np.zeros((s * mb, word.shape[2], 1), word.dtype)  # the pattern e = 0
    level0 = (CodewordTable(field, empty, empty.transpose(2, 0, 1)),
              np.zeros((s, 1), np.int64), np.full((s, 1), -1))
    return InfoSets(
        field, k, union,
        np.array(pivots, dtype=np.int64).reshape(s, k),
        np.array(maps, dtype=np.float64).reshape(s, k * e, (mb * n + k) * e),
        np.array(counts, dtype=object).reshape(s, mb * n + 1),
        tuple(atoms), [level0], threading.Lock(),
    )


def _atoms(
    field: Field, mb: int, symbol: np.ndarray, gf_map: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], list[int]]:
    """The patterns of weight 1 of the set whose pivot i lies in
    ``symbol[i]``, from its gf_map = (M | A), and its pattern counts by
    weight: the elementary symmetric polynomials of the numbers of nonzero
    values on each symbol's pivots."""
    q, k = field.q, len(symbol)
    width = gf_map.shape[1] - k  # mb n
    rank = np.unique(symbol, return_inverse=True)[1].ravel()
    errors, counts = [], [1]
    for r in range(rank.max() + 1):
        at = np.flatnonzero(rank == r)
        e = np.zeros((q ** len(at) - 1, k), dtype=np.int64)
        e[:, at] = message_digits(q, np.arange(1, q ** len(at)), len(at))
        errors.append(e)
        counts = [a + len(e) * b for a, b in zip(counts + [0], [0] + counts)]
    e = np.concatenate(errors)
    image = (Matrix(field, *e.shape, e) @ Matrix(field, k, k + width, gf_map)).data
    low = np.ascontiguousarray(pack_rows(field, image[:, :width], mb).transpose(1, 2, 0))
    ranks = np.repeat(np.arange(len(errors)), [len(e) for e in errors])
    return (low, message_index(q, field.neg(image[:, width:])), ranks), counts


def _level(sets: InfoSets, w: int) -> tuple[CodewordTable, np.ndarray, np.ndarray]:
    """The patterns of weight w of every set, built from those of weight
    w - 1 on first use: each pattern plus each atom above its highest
    symbol, so every pattern is made once."""
    field, k, counts = sets.field, sets.k, sets.counts
    with sets.lock:
        while len(sets.levels) <= w:
            v = len(sets.levels)
            table, messages, tops = sets.levels[-1]
            mb = len(table.low) // len(sets.atoms)
            size = np.arange(max(counts[:, v]))
            lows, new_messages, new_tops = [], [], []
            for j, (low, message, rank) in enumerate(sets.atoms):
                first = np.searchsorted(rank, tops[j, : counts[j, v - 1]] + 1)
                parent, atom = _ranges(first, len(rank) - first)
                fill = np.where(size < len(parent), size, 0)
                parent, atom = parent[fill], atom[fill]
                parents = table.low[j * mb : (j + 1) * mb, :, parent]
                if field.q == 2:
                    lows.append(parents ^ low[..., atom])
                else:
                    lows.append(field.tables()[0][parents, low[..., atom]])
                new_messages.append(_add(field, messages[j, parent], message[atom], k))
                new_tops.append(rank[atom])
            sets.levels.append((table._replace(low=np.concatenate(lows)),
                                np.stack(new_messages), np.stack(new_tops)))
        return sets.levels[w]


def _agreeing(sets: InfoSets, symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each word r of ``symbols`` (F, mb, n) and each set I, the codeword
    c = r_I M that agrees with r on I: c - r, packed like ``pack_rows`` on
    the s mb blocks of the sets' levels, (F, s mb, W), and c's message
    index (F, s).  The digit products are taken in floating point, which is
    exact for them and runs as one matrix product per set."""
    field = sets.field
    f, mb, n = symbols.shape
    s, k = sets.pivots.shape
    p, e, width = field.p, field.e, mb * n * field.e
    flat = symbols.reshape(f, mb * n)
    digits = (flat[..., None] if e == 1 else message_digits(p, flat, e)).astype(np.float64)
    picked = digits[:, sets.pivots].reshape(f, s, k * e).transpose(1, 0, 2)
    image = np.ascontiguousarray(picked) @ sets.maps  # (s, F, (mb n + k) e)
    image[..., :width] += (p - 1) * digits.reshape(f, width)  # c - r, all terms >= 0
    image -= p * np.floor(image / p)  # mod p, exact on integers this small
    image = image.astype(np.int16 if e == 1 else np.int64)
    diff = image[..., :width] if e == 1 else message_index(p, image[..., :width].reshape(s, f, -1, e))
    packed = pack_rows(field, diff.reshape(s * f, mb * n), mb)
    packed = packed.reshape(s, f, mb, -1).transpose(1, 0, 2, 3).reshape(f, s * mb, -1)
    return packed, message_index(p, image[..., width:].astype(np.int64)).T


def isd_nearest(
    sets: InfoSets,
    symbols: np.ndarray,
    sweep: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """What ``nearest`` returns for the words ``symbols`` (F, mb, n) on the
    code of ``sets``: the message index and distance of the nearest
    codeword, ties going to the smallest index.

    For w = 0, 1, ..., every error pattern e of weight w on each set I gives
    the codeword (r_I - e) M, and its message index.  The s sets share no
    symbol, so once weight w has run, a codeword not yet seen differs from
    r on at least w + 1 symbols of every set: it is at distance at least
    s (w + 1).  A word stops once its best distance is below that, so every
    codeword as near, every tie too, has been seen.

    A word that would need more patterns in all than the q^k codewords, or
    patterns of one weight whose table would pass ``_CHUNK_BUDGET`` words,
    is decoded by ``sweep(rows)`` instead, which returns ``nearest``'s
    result for those rows of ``symbols``; so is every word when the code
    has no information set on these blocks (rank below k).
    """
    field, k, union = sets.field, sets.k, sets.union
    f, mb, _ = symbols.shape
    s = len(sets.pivots)
    live = np.arange(f)
    if s == 0:
        return sweep(live)
    best = np.full(f, _INF, dtype=np.int64)
    index = np.zeros(f, dtype=np.int64)
    diff, base = _agreeing(sets, symbols)
    spent, words = 0, diff.shape[1] * diff.shape[2]  # table words per pattern
    for w in range(sets.counts.shape[1]):
        if not sets.counts[:, w].all():  # a set has run every codeword
            live = live[:0]
            break
        spent += sets.counts[:, w].sum()
        if spent > field.q**k or max(sets.counts[:, w]) * words > _CHUNK_BUDGET:
            break
        table, messages, _ = _level(sets, w)
        for rows, _, dist in _coset_weights(table, diff[live], range(s * mb), union, s):
            least = dist.min(axis=1)
            word, hit = np.nonzero(dist == least[:, None])
            at, pattern = np.divmod(hit, dist.shape[1] // s)
            frames = live[rows]
            ties = _add(field, base[frames[word], at], messages[at, pattern], k)
            count = np.bincount(word, minlength=len(dist))
            first = np.minimum.reduceat(ties, np.cumsum(count) - count)
            least, old = least.astype(np.int64), best[frames]
            index[frames] = np.where(least < old, first, np.where(
                least == old, np.minimum(index[frames], first), index[frames]))
            best[frames] = np.minimum(old, least)
        live = live[best[live] >= s * (w + 1)]
        if not len(live):
            break
    if len(live):
        index[live], best[live] = sweep(live)
    return index, best


def _distances(
    table: CodewordTable, received: Sequence[int], blocks: Sequence[int], union: bool
) -> np.ndarray:
    """Weights of c - r on ``blocks`` for every codeword c, in message-index
    order; ``received`` holds all m blocks."""
    words = pack_rows(table.field, [received], table.low.shape[0])[:, list(blocks)]
    c = table.low.shape[2]
    out = None
    for _, t, dist in _coset_weights(table, words, blocks, union):
        if out is None:
            out = np.empty(table.size, dist.dtype)
        out[t * c : (t + 1) * c] = dist[0]
    return out


def hamming_distances(table: CodewordTable, received: Sequence[int], blocks: Sequence[int]) -> np.ndarray:
    """Hamming distance from ``received`` (all m blocks) to every codeword,
    on the 0-based ``blocks``, in the smallest unsigned dtype that holds it."""
    return _distances(table, received, blocks, union=False)


def block_distances(table: CodewordTable, received: Sequence[int], blocks: Sequence[int]) -> np.ndarray:
    """Block-metric distances on ``blocks``: the columns where some chosen
    block of the codeword differs from ``received``."""
    return _distances(table, received, blocks, union=True)
