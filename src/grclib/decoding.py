"""Channel models, minimum-distance decoding, Chase combining, multi-round
decoding, and Monte-Carlo frame-error-rate estimation.

Decoding is hard-decision throughout: the AWGN/BPSK channel is reduced to
its induced binary symmetric channel, under which maximum-likelihood
decoding is exact nearest-codeword search in the relevant metric.

One decoding path: a ``GrcDecoder`` holds the code's field, shape,
generator and Type-I permutations, and no reference to the code, and builds
each of its tables on first use: the codeword table of the full code, the
blocks' coset-leader tables and the information sets of its multi-block
candidates.  Each candidate, like ``md_decode``, is a nearest-codeword
search on a block subset, with ties going to the smallest message index,
and a message index is read as base-q digits by ``kernels.message_digits``.
A Chase candidate votes the Type-I copies aligned onto block 1 and decodes
the result in block 1, so its message is numbered like every other.  Every
candidate on one block (round 1 in either metric, since on one block the
block weight is the Hamming weight, and Chase's decode in block 1) decodes
by syndrome, from the block's leader table (``kernels.coset_leaders``), or
sweeps the codeword table (``kernels.nearest``) where the block gets none:
rank below k, or more leaders than codewords.  A candidate on several
blocks, in either metric, enumerates error patterns on information sets of
the code on those blocks (``kernels.isd_nearest``); a word that would need
more patterns than the q^k codewords sweeps the codeword table, and so does
every such candidate of a code so small that the sweep would take several
words per pass, which ``kernels.table_layout`` tells from the code's shape
before any table is built.  All give the same index.  One candidate loop,
``GrcDecoder.first_accepted``, walks the candidates once for a batch of
frames and decodes every frame not yet accepted in one call per candidate;
``multi_round_decode`` is that loop on one frame, and the simulator runs it
on batches of frames.  Both decode through the code's own decoder
(``GrcCode.decoder``), so a code's tables are built once, however many
simulations run on it, and freed with the code.  The simulator's CRC
is one GF(p)-linear map on base-p digits, built from the remainders of
x^i mod g: a batch's check symbols and its accept test are each one
integer product mod p, over GF(p) and GF(p^e) alike.

All randomness flows from a master seed; the stream for frame f, block b is
numpy's ``SeedSequence(seed, spawn_key=(f, b))`` feeding PCG64 (``rng_for``),
so results are bit-reproducible and independent of how frames are
partitioned across workers.  The simulator computes every draw of a batch
of frames on arrays, bit for bit what ``rng_for``'s generators draw: the
seeding hash and PCG64's seeding steps of all streams at once, output j of
a stream by jumping its 128-bit LCG j + 1 steps ahead (A state + B inc, the
products in 32-bit limbs), and numpy's conversions of the outputs to
doubles and to bounded integers.  Only a stream whose bounded draw numpy
rejects and redraws, which never happens for a power-of-two range and
otherwise about once in 2^32 / (2^32 mod r) draws, is drawn by a PCG64
generator set to its state.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import combinations
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import kernels
from .codes import Block, LinearCode
from .fields import Field
from .grc import GrcCode, TypeI, TypeII
from .perms import Permutation
from .poly import Poly

__all__ = [
    "Bsc",
    "AwgnBpskHard",
    "GenieVerifier",
    "CrcVerifier",
    "rng_for",
    "transmit",
    "md_decode",
    "DecodeResult",
    "chase_combine",
    "multi_round_decode",
    "MultiRoundResult",
    "GrcDecoder",
    "SimConfig",
    "SimResult",
    "fer_simulate",
]


# ---------------------------------------------------------------------------
# channels


@dataclass(frozen=True)
class Bsc:
    """Binary (q-ary) symmetric channel with the given crossover probability."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("crossover probability must be in [0, 1]")

    @property
    def crossover(self) -> float:
        return self.p

    @property
    def label(self) -> tuple[str, float]:
        return ("bsc", self.p)


@dataclass(frozen=True)
class AwgnBpskHard:
    """AWGN with BPSK and hard decisions; snr_db is treated as Es/N0.

    The induced crossover is Q(sqrt(2 * 10^(snr_db/10))).
    """

    snr_db: float

    def __post_init__(self) -> None:
        if math.isnan(self.snr_db):  # +-inf are fine: crossover 0 and 0.5
            raise ValueError("SNR must be a number, not NaN")

    @property
    def crossover(self) -> float:
        snr = 10.0 ** (self.snr_db / 10.0)
        return 0.5 * math.erfc(math.sqrt(snr))  # Q(sqrt(2 snr)) = erfc(sqrt(snr))/2

    @property
    def label(self) -> tuple[str, float]:
        return ("awgn-bpsk-hard", self.snr_db)


Channel = Bsc | AwgnBpskHard


def rng_for(seed: int, frame: int, stream: int) -> np.random.Generator:
    """Deterministic per-(frame, stream) generator derived from the master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(frame, stream)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64's multiplier
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_LOW32 = np.uint64(_MASK32)


def _words32(n: int) -> list[int]:
    """n as little-endian uint32 words, the way SeedSequence reads an int."""
    if n < 0:
        raise ValueError("expected a non-negative integer")
    out = [n & _MASK32]
    while n >> 32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _hashmix(value: int | np.ndarray, const: int) -> tuple[int | np.ndarray, int]:
    """SeedSequence's hashmix of ``value``, a word or a uint32 array, under
    the hash constant ``const``: the hashed value and the next constant."""
    nxt = const * _MULT_A & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ (value >> 16), nxt


def _mix(x: int | np.ndarray, y: int | np.ndarray) -> int | np.ndarray:
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ (value >> 16)


def _absorb(pool: list, const: int, word: int | np.ndarray) -> int:
    """Mix the entropy word ``word`` into every word of ``pool``, in place,
    as SeedSequence mixes each word after the pool's first four; returns the
    next hash constant."""
    for dst in range(_POOL):
        hashed, const = _hashmix(word, const)
        pool[dst] = _mix(pool[dst], hashed)
    return const


def _seed_pools(seed: int, frames: Sequence[int], streams: int) -> np.ndarray:
    """The hashed entropy pool (F, streams, 4) of SeedSequence(seed,
    spawn_key=(f, s)) for every f below 2^64 in ``frames`` and s <
    ``streams``.  The seed's words, which fill the pool and are mixed with
    each other, are hashed on Python ints; the hash works on arrays only
    from a frame's one or two words (F', 1) on, for the frames of each word
    length, and on the whole (F', streams) only from the stream word on."""
    run = _words32(seed)
    run += [0] * (_POOL - len(run))  # spawned sequences pad the seed to the pool size
    const, pool = _INIT_A, []
    for word in run[:_POOL]:
        hashed, const = _hashmix(word, const)
        pool.append(hashed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for word in run[_POOL:]:
        const = _absorb(pool, const, word)
    seeded = [np.full((1, 1), word, np.uint32) for word in pool]
    frames = np.asarray(frames, dtype=np.uint64).reshape(-1, 1)
    wide = frames[:, 0] > _MASK32
    out = np.empty((len(frames), streams, _POOL), np.uint32)
    for rows, words in ((~wide, [frames]), (wide, [frames & _MASK32, frames >> 32])):
        if rows.any():
            pool, hash_const = list(seeded), const
            for word in words:
                hash_const = _absorb(pool, hash_const, word[rows].astype(np.uint32))
            _absorb(pool, hash_const, np.arange(streams, dtype=np.uint32)[None, :])
            out[rows] = np.stack(pool, axis=-1)
    return out


# 128-bit integers are (hi, lo) pairs of uint64 arrays, which wrap mod 2^64


def _mul_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of a * b, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW32, a >> 32, b & _LOW32, b >> 32
    low = a0 * b0
    mid = a1 * b0 + (low >> 32)
    cross = a0 * b1 + (mid & _LOW32)
    return a1 * b1 + (mid >> 32) + (cross >> 32)


def _mul128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """a * b mod 2^128."""
    return _mul_hi(a_lo, b_lo) + a_hi * b_lo + a_lo * b_hi, a_lo * b_lo


def _add128(
    a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """a + b mod 2^128."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _split128(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Python ints below 2^128 as (hi, lo) uint64 arrays."""
    return (np.array([v >> 64 for v in values], np.uint64),
            np.array([v & _MASK64 for v in values], np.uint64))


_PCG_HI, _PCG_LO = _split128([_PCG_MULT])


def _pcg64_states(seed: int, frames: Sequence[int], streams: int) -> np.ndarray:
    """(state_hi, state_lo, inc_hi, inc_lo), shape (4, F, streams), of the
    PCG64 that ``rng_for(seed, f, s)`` starts from, for every f in ``frames``
    and s < ``streams``."""
    pool = _seed_pools(seed, frames, streams)
    # generate_state(4, uint64): eight hashed words cycling over the pool
    const, words = _INIT_B, []
    for i in range(8):
        value = pool[..., i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        words.append(value ^ (value >> 16))
    u64 = np.stack(words, axis=-1).astype("<u4").view("<u8").astype(np.uint64, copy=False)
    seed_hi, seed_lo, seq_hi, seq_lo = np.moveaxis(u64, -1, 0)
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    # pcg64_set_seed: a step from state 0, add the seed, another step
    state = _add128(*_mul128(*_add128(*inc, seed_hi, seed_lo), _PCG_HI, _PCG_LO), *inc)
    return np.stack([*state, *inc])


@cache
def _jumps(count: int) -> tuple[np.ndarray, ...]:
    """(A_hi, A_lo, B_hi, B_lo) of the first ``count`` PCG64 steps: j + 1
    steps take (state, inc) to A_j state + B_j inc, with A_j = M^(j+1) and
    B_j = 1 + M + ... + M^j."""
    a, b, steps_a, steps_b = 1, 0, [], []
    for _ in range(count):
        a, b = a * _PCG_MULT & _MASK128, (b * _PCG_MULT + 1) & _MASK128
        steps_a.append(a)
        steps_b.append(b)
    out = (*_split128(steps_a), *_split128(steps_b))
    for arr in out:
        arr.flags.writeable = False
    return out


def _pcg64_words(streams: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` 64-bit outputs (N, count) of the PCG64 streams
    (4, N) at (state_hi, state_lo, inc_hi, inc_lo): output j is the XSL-RR
    output function of the state j + 1 steps on."""
    a_hi, a_lo, b_hi, b_lo = _jumps(count)
    s_hi, s_lo, i_hi, i_lo = streams[..., None]
    hi, lo = _add128(*_mul128(s_hi, s_lo, a_hi, a_lo), *_mul128(i_hi, i_lo, b_hi, b_lo))
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _bounded(words: np.ndarray, count: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(0, r, size=count)`` for r < 2^32 on each row of
    ``words``, as numpy draws it (Lemire): 32-bit halves, low half first,
    each scaled to (u * r) >> 32.  A product whose low half is below
    2^32 mod r is rejected and redrawn; the second array marks the rows
    where that happens, whose values are then not numpy's."""
    halves = np.stack([words & _LOW32, words >> 32], axis=-1).reshape(len(words), -1)
    scaled = halves[:, :count] * np.uint64(r)
    threshold = (1 << 32) % r
    rejects = ((scaled & _LOW32) < threshold).any(axis=1)
    return (scaled >> 32).astype(np.int64), rejects


def _pcg64(stream: np.ndarray) -> np.random.Generator:
    """A generator at the PCG64 stream (state_hi, state_lo, inc_hi, inc_lo)."""
    s_hi, s_lo, i_hi, i_lo = (int(w) for w in stream)
    bitgen = np.random.PCG64(0)
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bitgen)


def _frame_draws(
    seed: int, frames: Sequence[int], m: int, n: int, q: int, digits: int
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Every random draw of the frames: for block b < m, ``rng_for(seed, f,
    b)`` draws ``random(n)`` (uniform, (F, m, n)) and, when q > 2,
    ``integers(1, q, size=n)`` (shift, (F, m, n)); stream m draws the
    message ``integers(0, q, size=digits)`` (F, digits).  The draws are
    computed on whole arrays, bit for bit numpy's; only a stream whose
    bounded draw numpy rejects is drawn again by a generator."""
    streams = _pcg64_states(seed, frames, m + 1)
    uniform = np.empty((len(frames), m, n))
    shift = np.empty((len(frames), m, n), dtype=np.int64) if q > 2 else None
    for b in range(m):
        words = _pcg64_words(streams[..., b], n if shift is None else n + (n + 1) // 2)
        uniform[:, b] = (words[:, :n] >> 11) * 2.0**-53  # Generator.random: the top 53 bits
        if shift is not None:
            values, rejects = _bounded(words[:, n:], n, q - 1)
            shift[:, b] = values + 1
            for f in np.flatnonzero(rejects):
                rng = _pcg64(streams[:, f, b])
                rng.random(n)  # the doubles, as computed above
                shift[f, b] = rng.integers(1, q, size=n)
    message, rejects = _bounded(_pcg64_words(streams[..., m], (digits + 1) // 2), digits, q)
    for f in np.flatnonzero(rejects):
        message[f] = _pcg64(streams[:, f, m]).integers(0, q, size=digits)
    return uniform, shift, message


def transmit(
    codeword: Sequence[int],
    channel: Channel,
    rng: np.random.Generator,
    field: Field,
) -> tuple[int, ...]:
    """Symbol-wise independent corruption.  Binary symbols flip with the
    crossover probability; non-binary symbols are replaced by a uniformly
    random different symbol with that probability."""
    p = channel.crossover
    arr = np.array(codeword, dtype=np.int16)
    hit = rng.random(len(arr)) < p
    if field.q == 2:
        arr[hit] ^= 1
        return tuple(int(x) for x in arr)
    shift = rng.integers(1, field.q, size=len(arr))
    add, _ = field.tables()
    arr[hit] = add[arr[hit], shift[hit]]
    return tuple(int(x) for x in arr)


# ---------------------------------------------------------------------------
# verifiers


@dataclass(frozen=True)
class GenieVerifier:
    """Accepts exactly the transmitted message."""

    message: tuple[int, ...]

    def accepts(self, message: Sequence[int]) -> bool:
        return tuple(message) == self.message


@dataclass(frozen=True)
class CrcVerifier:
    """Accepts any message divisible by the CRC generator polynomial.

    Messages carry their check inside: ``attach(payload)`` appends the
    deg(g) remainder digits so the whole message is divisible by g(x).
    False accepts are possible and are the caller's business to count.
    """

    generator: Poly

    @property
    def ncheck(self) -> int:
        return self.generator.degree

    def attach(self, payload: Sequence[int]) -> tuple[int, ...]:
        f = self.generator.field
        r = self.ncheck
        shifted = Poly.from_coeffs(f, [0] * r + list(payload))
        rem = shifted % self.generator
        check = [f.neg(rem.coeff(i)) for i in range(r)]
        return tuple(check) + tuple(payload)

    def accepts(self, message: Sequence[int]) -> bool:
        f = self.generator.field
        return (Poly.from_coeffs(f, list(message)) % self.generator).is_zero()


Verifier = GenieVerifier | CrcVerifier


def _crc_remainders(generator: Poly, k: int) -> np.ndarray:
    """The CRC of ``generator`` g, of degree r, as one GF(p)-linear map on
    base-p digits (k e, r e): the digit map (``kernels._digit_map``) of the
    (k, r) matrix R whose row i holds x^i mod g, so that a message's digits
    times it mod p are the digits of the message's remainder.  Row i + 1 of
    R is x times row i, its x^r term reduced by x^r = -(g_0 + ... +
    g_(r-1) x^(r-1)) / g_r.
    A base-q message index is the same integer read as k e base-p digits, so
    ``_crc_attach`` and ``_crc_accepts`` are ``CrcVerifier.attach`` and
    ``accepts`` on a batch, over GF(p) and GF(p^e) alike."""
    f, r = generator.field, generator.degree
    top = f.mul(f.neg(f.inv(generator.leading())), np.array(generator.coeffs[:r], dtype=np.int64))
    rows = list(np.eye(r, dtype=np.int64))  # x^i mod g is x^i below the degree
    for _ in range(r, k):
        row = f.mul(rows[-1][-1], top)
        row[1:] = f.add(row[1:], rows[-1][:-1])
        rows.append(row)
    return kernels._digit_map(f, np.array(rows))


def _crc_attach(p: int, rems: np.ndarray, payload: np.ndarray) -> np.ndarray:
    """The message index of every payload index with its CRC check symbols
    attached below it, as ``CrcVerifier.attach`` attaches them, from the map
    ``rems`` (k e, r e) over GF(p): the check digits are minus the payload's
    digits times the map's rows from r e on."""
    low = rems.shape[1]
    check = -(kernels.message_digits(p, payload, len(rems) - low) @ rems[low:]) % p
    return kernels.message_index(p, check) + payload * p**low


def _crc_accepts(p: int, rems: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Which message indices ``CrcVerifier.accepts``: those whose digits
    times the map ``rems`` (k e, r e) over GF(p) vanish."""
    return ~(kernels.message_digits(p, index, len(rems)) @ rems % p).any(axis=1)


# ---------------------------------------------------------------------------
# minimum-distance decoding


@dataclass(frozen=True)
class DecodeResult:
    message: tuple[int, ...]
    codeword: tuple[int, ...]
    distance: int


def md_decode(
    code: LinearCode,
    received: Sequence[int],
    metric: Block = Block(1),
    *,
    cap: int | None = None,
) -> DecodeResult:
    """Exact nearest-codeword decoding in the block metric ``metric``, ties
    going to the smallest message index; Block(1), the default, is the
    Hamming metric.  It enumerates error patterns on information sets
    (``kernels.isd_nearest``); only a word that would need more patterns
    than the q^k codewords is swept, and only that sweep refuses a code of
    more than 2^cap codewords."""
    if len(received) != code.n:
        raise ValueError("received length does not match code length")
    field, m = code.field, metric.m
    words = kernels.pack_rows(field, [received], m)
    sets = kernels.info_sets(field, code.gen.data.reshape(code.k, m, -1), union=True)

    def sweep(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        table = kernels.build_table(field, code.gen.rows(), m, cap=cap)
        return kernels.nearest(table, words[rows], range(m), union=True)

    index, dist = kernels.isd_nearest(sets, np.array(received).reshape(1, m, -1), sweep)
    message = _message(field.q, index[0], code.k)
    return DecodeResult(message, code.encode(message), int(dist[0]))


def _message(q: int, index: np.integer, k: int) -> tuple[int, ...]:
    """The message of a message index, as a tuple of k Python ints."""
    return tuple(kernels.message_digits(q, index, k).tolist())


# ---------------------------------------------------------------------------
# Chase combining


def chase_combine(
    blocks: Sequence[Sequence[int]],
    perms: Sequence[Permutation],
    *,
    field: Field,
) -> tuple[int, ...]:
    """Align received blocks onto block 1 by undoing the Type-I permutations,
    then take a per-column majority vote: the alignment and vote of a
    ``GrcDecoder`` Chase candidate, on one frame.  A tie goes to the earliest
    block whose symbol is among the most frequent.
    """
    m = len(blocks)
    if len(perms) != m - 1:
        raise ValueError("need one permutation per retransmitted block")
    symbols = np.array(blocks, dtype=np.int64)[None]
    if any(p.size != symbols.shape[2] for p in perms):
        raise ValueError("permutation size does not match block length")
    if ((symbols < 0) | (symbols >= field.q)).any():
        raise ValueError(f"symbol out of range for {field}")
    return tuple(int(x) for x in _vote(_align(symbols, perms), field.q)[0])


def _align(symbols: np.ndarray, perms: Sequence[Permutation]) -> np.ndarray:
    """Blocks 1..r of every frame's blocks ``symbols`` (F, m, n), with
    r = len(perms) + 1, aligned onto block 1 by undoing the Type-I
    permutations: (F, r, n)."""
    n = symbols.shape[2]
    index = np.array([range(n)] + [p.inverse().apply(range(n)) for p in perms])
    return np.take_along_axis(symbols[:, : len(index)], index[None], axis=2)


def _vote(aligned: np.ndarray, q: int) -> np.ndarray:
    """Column-wise majority (F, n) of the aligned blocks (F, r, n) of every
    frame.  A column with more than one most frequent symbol is a tie, which
    goes to the earliest block whose symbol is among them."""
    counts = (aligned[..., None] == np.arange(q)).sum(axis=1)  # (F, n, q)
    tops = counts == counts.max(axis=2, keepdims=True)
    first = np.take_along_axis(tops, aligned.transpose(0, 2, 1), axis=2).argmax(axis=2)
    return np.take_along_axis(aligned, first[:, None, :], axis=1)[:, 0]


# ---------------------------------------------------------------------------
# multi-round decoding


@dataclass(frozen=True)
class Candidate:
    round: int
    blocks: tuple[int, ...]  # 1-based subset T
    kind: str  # hamming | block | chase


SCHEMES = ("multiround", "bsymbol", "ir", "repetition")


def iter_candidates(grc: GrcCode, depth: int, *, scheme: str = "multiround", combining: bool = True) -> Iterator[Candidate]:
    """Decode attempts in order: rounds of increasing size, subsets in
    lexicographic order, Hamming before block metric, Chase combining last.

    Schemes: 'multiround' (the full subset ladder), 'bsymbol' (single rows,
    then the full set only), 'ir' (prefix subsets under Hamming only),
    'repetition' (single rows plus prefix majority voting, the classical
    repetition receiver).
    """
    m = grc.m
    if not 1 <= depth <= m:
        raise ValueError("depth must be in [1, m]")
    type1 = isinstance(grc.variant, TypeI)
    if scheme == "repetition" and depth > 1 and not type1:
        raise ValueError("scheme 'repetition' combines blocks by Chase, which needs a Type-I code")
    type2 = isinstance(grc.variant, TypeII)
    if scheme == "ir":
        for r in range(1, depth + 1):
            yield Candidate(r, tuple(range(1, r + 1)), "hamming")
        return
    if scheme == "repetition":
        for r in range(1, depth + 1):
            if r == 1:
                for i in range(1, m + 1):
                    yield Candidate(1, (i,), "hamming")
            else:
                yield Candidate(r, tuple(range(1, r + 1)), "chase")
        return
    if scheme == "bsymbol":
        rounds: list[int] = [1] + ([m] if depth == m and m > 1 else [])
    elif scheme == "multiround":
        rounds = list(range(1, depth + 1))
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    for r in rounds:
        for t in combinations(range(1, m + 1), r):
            if r == 1:
                yield Candidate(r, t, "hamming")
                continue
            if type2:
                yield Candidate(r, t, "hamming")
            yield Candidate(r, t, "block")
        if type1 and combining and r == m:
            yield Candidate(r, tuple(range(1, m + 1)), "chase")


@dataclass(frozen=True)
class MultiRoundResult:
    message: tuple[int, ...] | None
    rounds_used: int
    subsets_tried: int
    accepted_by: Candidate | None


# accepts(frames, message indices): which of the frames' decoded messages pass
Acceptor = Callable[[np.ndarray, np.ndarray], np.ndarray]


class GrcDecoder:
    """The decode state of a GRC and the candidate decodes run over it: the
    field, shape and generator, the Type-I permutations for Chase, and the
    tables built from them on first use, so a new decoder enumerates nothing.
    It holds no reference to the code, so a code that keeps it
    (``GrcCode.decoder``) is freed with it.
    """

    def __init__(self, grc: GrcCode):
        self.field, self.m, self.n, self.k = grc.field, grc.m, grc.n, grc.dim  # k: message length
        self.gen = grc.gen.data
        self.perms = grc.variant.perms if isinstance(grc.variant, TypeI) else ()
        self._lock = threading.Lock()  # the simulator's threads share one decoder
        self._built: dict[tuple, Any] = {}

    def _first_use(self, key: tuple, build: Callable[[], Any]) -> Any:
        """``build()`` on the first use of ``key``, once however many threads ask."""
        with self._lock:
            if key not in self._built:
                self._built[key] = build()
            return self._built[key]

    @property
    def table(self) -> kernels.CodewordTable:
        """The codeword table of the full code."""
        return self._first_use(("table",), lambda: kernels.build_table(self.field, self.gen, self.m))

    def candidate_message(self, received: Sequence[int], cand: Candidate) -> tuple[int, ...]:
        """The message that one candidate decodes ``received`` to."""
        symbols = np.array(received, dtype=np.int16).reshape(1, self.m, self.n)
        index = self._decode(symbols, self._pack(symbols), cand)
        return _message(self.field.q, index[0], self.k)

    def first_accepted(
        self, received: np.ndarray, cands: Sequence[Candidate], accepts: Acceptor
    ) -> tuple[np.ndarray, np.ndarray]:
        """Walk ``cands`` once for the frames ``received`` (F, m, n): each
        candidate decodes every frame that no earlier one accepted.

        Returns, per frame, the position in ``cands`` of the first candidate
        whose message ``accepts`` passes (-1 when none does), and that
        message's index.
        """
        packed = self._pack(received)
        at = np.full(len(received), -1)
        index = np.zeros(len(received), dtype=np.int64)
        live = np.arange(len(received))
        for pos, cand in enumerate(cands):
            if not len(live):
                break
            decoded = self._decode(received[live], packed[live], cand)
            ok = accepts(live, decoded)
            at[live[ok]], index[live[ok]] = pos, decoded[ok]
            live = live[~ok]
        return at, index

    def _pack(self, symbols: np.ndarray) -> np.ndarray:
        return kernels.pack_rows(self.field, symbols.reshape(len(symbols), -1), self.m)

    def _decode(self, symbols: np.ndarray, packed: np.ndarray, cand: Candidate) -> np.ndarray:
        """Message index of every frame under one candidate, from its blocks
        ``symbols`` (F, m, n) and their packed words ``packed`` (F, m, W)."""
        if cand.kind == "chase":
            # blocks 1..r, aligned onto block 1 and voted, decode in block 1
            voted = _vote(_align(symbols, self.perms[: len(cand.blocks) - 1]), self.field.q)
            return self._decode_block(0, voted)
        if len(cand.blocks) == 1:  # on one block the block weight is the Hamming weight
            return self._decode_block(cand.blocks[0] - 1, symbols[:, cand.blocks[0] - 1])
        blocks, union = [b - 1 for b in cand.blocks], cand.kind == "block"

        def sweep(rows: np.ndarray | slice) -> tuple[np.ndarray, np.ndarray]:
            return kernels.nearest(self.table, packed[rows][:, blocks], blocks, union)

        if kernels.table_layout(self.field.q, self.k, self.m, self.n)[1] > 1:
            # the sweep takes several words per pass on a table this small, so a
            # word's whole sweep costs less than one weight of the enumeration
            return sweep(slice(None))[0]
        return kernels.isd_nearest(self._info_sets(tuple(blocks), union), symbols[:, blocks], sweep)[0]

    def _info_sets(self, blocks: tuple[int, ...], union: bool) -> kernels.InfoSets:
        """The information sets of the code on the 0-based ``blocks``, in
        the block metric when ``union`` and the Hamming metric otherwise."""
        return self._first_use(("sets", blocks, union), lambda: kernels.info_sets(
            self.field, self.gen.reshape(self.k, self.m, self.n)[:, list(blocks)], union))

    def _decode_block(self, b: int, words: np.ndarray) -> np.ndarray:
        """Message index of the codeword nearest to each of ``words`` (F, n)
        in the 0-based block b, ties going to the smallest index: by
        syndrome when the block has a coset-leader table, else by a sweep."""
        leaders = self._block_leaders(b)
        if leaders is not None:
            return leaders.decode(words)
        packed = kernels.pack_rows(self.field, words, 1)
        return kernels.nearest(self.table, packed, [b], False)[0]

    def _block_leaders(self, b: int) -> kernels.CosetLeaders | None:
        """The coset-leader table of block b, shared by blocks with the same
        generator, or None where ``kernels.coset_leaders`` declines: a block
        of rank below k, or more leaders than codewords."""
        block = self.gen[:, b * self.n : (b + 1) * self.n]
        return self._first_use(
            ("leaders", block.tobytes()), lambda: kernels.coset_leaders(self.field, block))


def multi_round_decode(
    grc: GrcCode,
    received: Sequence[int],
    depth: int,
    verifier: Verifier,
    *,
    decoder: GrcDecoder | None = None,
    scheme: str = "multiround",
    combining: bool = True,
) -> MultiRoundResult:
    """Try sub-block decodings of increasing depth until one passes the
    verifier; failure after exhausting depth is a result, not an error.
    Without a ``decoder``, the code's own (``GrcCode.decoder``) decodes."""
    dec = decoder or grc.decoder
    cands = list(iter_candidates(grc, depth, scheme=scheme, combining=combining))
    symbols = np.array(received, dtype=np.int16).reshape(1, grc.m, grc.n)
    q, k = grc.field.q, grc.dim

    def accepts(frames: np.ndarray, index: np.ndarray) -> np.ndarray:
        return np.array([verifier.accepts(_message(q, i, k)) for i in index], dtype=bool)

    at, index = dec.first_accepted(symbols, cands, accepts)
    if at[0] < 0:
        return MultiRoundResult(None, depth, len(cands), None)
    cand = cands[at[0]]
    return MultiRoundResult(_message(q, index[0], k), cand.round, int(at[0]) + 1, cand)


# ---------------------------------------------------------------------------
# frame-error-rate simulation


@dataclass(frozen=True)
class SimConfig:
    grc: GrcCode
    channel: Channel
    frames: int
    seed: int
    max_depth: int
    scheme: str = "multiround"
    combining: bool = True
    crc: Poly | None = None  # genie verification when absent
    threads: int = 1
    code_id: str = "code"

    def __post_init__(self) -> None:
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}: one of {', '.join(SCHEMES)}")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if not 1 <= self.max_depth <= self.grc.m:
            raise ValueError("max_depth must be in [1, m]")
        if self.crc is not None and self.crc.field != self.grc.field:
            raise ValueError(f"CRC over {self.crc.field} on a code over the field {self.grc.field}")
        if self.crc is not None and self.crc.degree < 1:
            raise ValueError("CRC generator must have degree >= 1")
        if self.crc is not None and self.crc.degree >= self.grc.dim:
            raise ValueError(
                f"CRC degree {self.crc.degree} leaves no payload in a message of"
                f" dimension {self.grc.dim}"
            )


@dataclass(frozen=True)
class DepthStats:
    depth: int
    frames: int
    frame_errors: int
    false_accepts: int

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames


@dataclass(frozen=True)
class SimResult:
    config_id: str
    channel_label: tuple[str, float]
    seed: int
    per_depth: tuple[DepthStats, ...]
    elapsed: float = dc_field(compare=False, default=0.0)

    def fer(self, depth: int) -> float:
        return self.per_depth[depth - 1].fer

    CSV_HEADER = "code_id,channel,snr_db_or_p,depth,frames,frame_errors,fer,false_accepts,seed"

    def csv_rows(self) -> list[str]:
        kind, value = self.channel_label
        return [
            f"{self.config_id},{kind},{value},{s.depth},{s.frames},{s.frame_errors},"
            f"{s.fer:.6f},{s.false_accepts},{self.seed}"
            for s in self.per_depth
        ]


_BATCH = 1024  # frames per batch at most; each thread simulates one batch at a time


def _simulate_batch(
    cfg: SimConfig, dec: GrcDecoder, rems: np.ndarray | None, frames: range
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First accepting round (m + 1 when none) of every frame, the index of
    the accepted message (-1 when none), and the index of the message sent.

    Frame f's message is drawn from stream m and its block b corrupted by
    stream b, exactly as ``rng_for(seed, f, .)`` and ``transmit`` would.
    With a CRC, ``rems`` is its ``_crc_remainders`` for the message length,
    the map from a message's base-p digits to its remainder's: each frame's
    payload gets its check symbols from one product of its digits with the
    map (``_crc_attach``), and a decoded message passes where its digits
    times the map are zero mod p (``_crc_accepts``).
    """
    grc = cfg.grc
    field, m, n, k = grc.field, grc.m, grc.n, grc.dim
    q, crossover = field.q, cfg.channel.crossover
    r = 0 if rems is None else rems.shape[1] // field.e
    table = dec.table  # a first build lands in the heap ahead of the draws' arrays
    uniform, shift, digits = _frame_draws(cfg.seed, frames, m, n, q, k - r)
    sent = kernels.message_index(q, digits)
    if rems is not None:
        sent = _crc_attach(field.p, rems, sent)
    received = table.codewords(sent, n)
    hit = uniform < crossover
    if q == 2:
        received ^= hit
    else:
        add, _ = field.tables()
        received = np.where(hit, add[received, shift], received)
    cands = list(iter_candidates(grc, cfg.max_depth, scheme=cfg.scheme, combining=cfg.combining))
    if rems is None:
        accepts: Acceptor = lambda live, index: index == sent[live]
    else:
        accepts = lambda live, index: _crc_accepts(field.p, rems, index)
    at, index = dec.first_accepted(received, cands, accepts)
    rounds = np.array([c.round for c in cands] + [m + 1])[at]  # position -1: none accepted
    return rounds, np.where(at >= 0, index, -1), sent


def fer_simulate(cfg: SimConfig) -> SimResult:
    """Frame-error rates at every depth 1..max_depth on shared noise.

    A frame counts as an error at depth D unless some candidate of round
    <= D was accepted and the accepted message is the transmitted one; an
    accepted wrong message is a false accept (possible only with CRC).
    Frames are simulated in batches; how they are split into batches and
    threads changes no frame's outcome."""
    t0 = time.monotonic()
    dec = cfg.grc.decoder
    rems = None if cfg.crc is None else _crc_remainders(cfg.crc, cfg.grc.dim)
    size = min(_BATCH, -(-cfg.frames // cfg.threads))
    batches = [range(s, min(s + size, cfg.frames)) for s in range(0, cfg.frames, size)]
    if cfg.threads == 1:
        outcomes = [_simulate_batch(cfg, dec, rems, b) for b in batches]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(lambda b: _simulate_batch(cfg, dec, rems, b), batches))
    rounds, index, sent = (np.concatenate(parts) for parts in zip(*outcomes))
    ok = index == sent
    per_depth = []
    for depth in range(1, cfg.max_depth + 1):
        done = rounds <= depth
        per_depth.append(DepthStats(
            depth, cfg.frames, int(cfg.frames - (done & ok).sum()), int((done & ~ok).sum())
        ))
    return SimResult(
        cfg.code_id,
        cfg.channel.label,
        cfg.seed,
        tuple(per_depth),
        elapsed=time.monotonic() - t0,
    )
