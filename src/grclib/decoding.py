"""Channel models, minimum-distance decoding, Chase combining, multi-round
decoding, and Monte-Carlo frame-error-rate estimation.

Decoding is hard-decision throughout: the AWGN/BPSK channel is reduced to
its induced binary symmetric channel, under which maximum-likelihood
decoding is exact nearest-codeword search in the relevant metric.

One decoding path: a ``GrcDecoder`` holds one codeword table, of the full
code, and each candidate, like ``md_decode``, is a nearest-codeword search
in it on a block subset.  A Chase candidate votes the Type-I copies aligned
onto block 1 and decodes the result in block 1 of that table, so its message
is numbered like every other.  The simulator runs ``multi_round_decode``.

All randomness flows from a master seed; the stream for frame f, block b is
derived with an independent spawn key, so results are bit-reproducible and
independent of how frames are partitioned across workers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from . import kernels
from .codes import Hamming, LinearCode, Metric, _metric_blocks
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
    if field.e == 1:
        arr[hit] = (arr[hit] + shift[hit]) % field.q
    else:
        for i in np.nonzero(hit)[0]:
            arr[i] = field.add(int(arr[i]), int(shift[i]))
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


# ---------------------------------------------------------------------------
# minimum-distance decoding


@dataclass(frozen=True)
class DecodeResult:
    message: tuple[int, ...]
    codeword: tuple[int, ...]
    distance: int


def _nearest(
    table: kernels.CodewordTable, received: Sequence[int], blocks: Sequence[int], metric: str
) -> tuple[int, int]:
    """(message index, distance) of the codeword nearest to ``received`` on
    the 0-based ``blocks``, in the 'hamming' or 'block' metric.

    ``received`` holds whole blocks, at least up to the last one decoded.
    Ties resolve to the smallest message index (message digits little-endian
    in base q), which is the first argmin in table order.
    """
    packed = table.pack(received)
    if metric == "hamming":
        dist = kernels.hamming_distances(table, packed, blocks)
    else:
        dist = kernels.block_distances(table, packed, blocks)
    idx = int(np.argmin(dist))
    return idx, int(dist[idx])


def md_decode(
    code: LinearCode,
    received: Sequence[int],
    metric: Metric = Hamming(),
    *,
    cap: int | None = None,
) -> DecodeResult:
    """Exhaustive nearest-codeword decoding in the given metric."""
    kernels.check_cap(code.k, cap)
    if len(received) != code.n:
        raise ValueError("received length does not match code length")
    m = _metric_blocks(metric, code.n)
    table = kernels.build_table(code.field, code.gen.rows(), m)
    kind = "hamming" if isinstance(metric, Hamming) else "block"
    idx, dist = _nearest(table, received, range(m), kind)
    return DecodeResult(table.message(idx), table.codeword(idx), dist)


# ---------------------------------------------------------------------------
# Chase combining


def chase_combine(
    blocks: Sequence[Sequence[int]],
    perms: Sequence[Permutation],
    *,
    field: Field,
    tie_policy: str = "first-block",
    rng: np.random.Generator | None = None,
) -> tuple[int, ...]:
    """Align received blocks by undoing the Type-I permutations, then take a
    per-column majority vote.

    ``tie_policy`` is 'first-block' (deterministic: the earliest block among
    the tied symbols wins) or 'random' (draw from ``rng``).
    """
    m = len(blocks)
    if len(perms) != m - 1:
        raise ValueError("need one permutation per retransmitted block")
    if tie_policy not in ("first-block", "random"):
        raise ValueError(f"unknown tie policy {tie_policy!r}")
    if tie_policy == "random" and rng is None:
        raise ValueError("tie policy 'random' needs an rng")
    aligned = [tuple(blocks[0])]
    for z, p in zip(blocks[1:], perms):
        aligned.append(p.inverse().apply(tuple(z)))
    return _majority_vote(aligned, tie_policy, rng)


def _majority_vote(
    aligned: Sequence[Sequence[int]],
    tie_policy: str,
    rng: np.random.Generator | None,
) -> tuple[int, ...]:
    n = len(aligned[0])
    out = []
    for j in range(n):
        column = [a[j] for a in aligned]
        counts: dict[int, int] = {}
        for x in column:
            counts[x] = counts.get(x, 0) + 1
        top = max(counts.values())
        tied = [x for x, c in counts.items() if c == top]
        if len(tied) == 1:
            out.append(tied[0])
        elif tie_policy == "first-block":
            out.append(next(x for x in column if x in tied))
        else:
            out.append(int(rng.choice(sorted(tied))))
    return tuple(out)


# ---------------------------------------------------------------------------
# multi-round decoding


@dataclass(frozen=True)
class Candidate:
    round: int
    blocks: tuple[int, ...]  # 1-based subset T
    kind: str  # hamming | block | chase


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


class GrcDecoder:
    """The codeword table of a GRC, and the candidate decodes run over it."""

    def __init__(self, grc: GrcCode):
        self.grc = grc
        self.full_code = grc.full_code()
        self.table = kernels.build_table(grc.field, grc.gen.rows(), grc.m)

    def split(self, received: Sequence[int]) -> list[tuple[int, ...]]:
        n = self.grc.n
        return [tuple(received[i * n : (i + 1) * n]) for i in range(self.grc.m)]

    def candidate_message(
        self,
        received: Sequence[int],
        cand: Candidate,
        *,
        tie_policy: str = "first-block",
        rng: np.random.Generator | None = None,
    ) -> tuple[int, ...]:
        if cand.kind == "chase":
            # blocks 1..r, aligned onto block 1 and voted, decode in block 1
            r = len(cand.blocks)
            combined = chase_combine(
                self.split(received)[:r],
                self.grc.variant.perms[: r - 1],  # type: ignore[union-attr]
                field=self.grc.field,
                tie_policy=tie_policy,
                rng=rng,
            )
            idx, _ = _nearest(self.table, combined, [0], "hamming")
        else:
            idx, _ = _nearest(self.table, received, [b - 1 for b in cand.blocks], cand.kind)
        return self.table.message(idx)


def multi_round_decode(
    grc: GrcCode,
    received: Sequence[int],
    depth: int,
    verifier: Verifier,
    *,
    decoder: GrcDecoder | None = None,
    scheme: str = "multiround",
    combining: bool = True,
    tie_policy: str = "first-block",
    rng: np.random.Generator | None = None,
) -> MultiRoundResult:
    """Try sub-block decodings of increasing depth until one passes the
    verifier; failure after exhausting depth is a result, not an error."""
    dec = decoder or GrcDecoder(grc)
    tried = 0
    for cand in iter_candidates(grc, depth, scheme=scheme, combining=combining):
        msg = dec.candidate_message(received, cand, tie_policy=tie_policy, rng=rng)
        tried += 1
        if verifier.accepts(msg):
            return MultiRoundResult(msg, cand.round, tried, cand)
    return MultiRoundResult(None, depth, tried, None)


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
        if not 1 <= self.max_depth <= self.grc.m:
            raise ValueError("max_depth must be in [1, m]")
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


def _simulate_frame(
    cfg: SimConfig, dec: GrcDecoder, frame: int
) -> tuple[int, bool]:
    """Returns (first accepting round or m+1, accepted message correct)."""
    grc = cfg.grc
    field = grc.field
    m, k = grc.m, grc.dim
    msg_rng = rng_for(cfg.seed, frame, m)
    if cfg.crc is None:
        message = tuple(int(x) for x in msg_rng.integers(0, field.q, size=k))
        verifier: Verifier = GenieVerifier(message)
    else:
        verifier = CrcVerifier(cfg.crc)
        payload = tuple(int(x) for x in msg_rng.integers(0, field.q, size=k - verifier.ncheck))
        message = verifier.attach(payload)
    codeword = dec.full_code.encode(message)
    n = grc.n
    received: list[int] = []
    for b in range(m):
        block = codeword[b * n : (b + 1) * n]
        received.extend(transmit(block, cfg.channel, rng_for(cfg.seed, frame, b), field))
    res = multi_round_decode(
        grc, received, cfg.max_depth, verifier,
        decoder=dec, scheme=cfg.scheme, combining=cfg.combining,
    )
    if res.message is None:
        return m + 1, False
    return res.rounds_used, res.message == message


def fer_simulate(cfg: SimConfig) -> SimResult:
    """Frame-error rates at every depth 1..max_depth on shared noise.

    A frame counts as an error at depth D unless some candidate of round
    <= D was accepted and the accepted message is the transmitted one; an
    accepted wrong message is a false accept (possible only with CRC)."""
    t0 = time.monotonic()
    dec = GrcDecoder(cfg.grc)
    outcomes: list[tuple[int, bool]]
    if cfg.threads <= 1:
        outcomes = [_simulate_frame(cfg, dec, f) for f in range(cfg.frames)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            outcomes = list(pool.map(lambda f: _simulate_frame(cfg, dec, f), range(cfg.frames)))
    per_depth = []
    for depth in range(1, cfg.max_depth + 1):
        errors = 0
        false_accepts = 0
        for rnd, ok in outcomes:
            if rnd <= depth and ok:
                continue
            errors += 1
            if rnd <= depth and not ok:
                false_accepts += 1
        per_depth.append(DepthStats(depth, cfg.frames, errors, false_accepts))
    return SimResult(
        cfg.code_id,
        cfg.channel.label,
        cfg.seed,
        tuple(per_depth),
        elapsed=time.monotonic() - t0,
    )
