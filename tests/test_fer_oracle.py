"""The simulator's frame-error rates against exact values.

Under genie verification a frame fails at depth 1 exactly when every
block's single-block Hamming candidate misses the sent message.  The blocks'
noise is independent, and on a Type-I code every block decodes like block 1
(its generator is block 1's with permuted columns, and the channel's noise
does not see the order of the columns).  So FER_1 = mean over messages of
(1 - Pc(msg))^m, where Pc(msg) is the chance that block 1 decodes a noisy
copy of msg's codeword back to msg.

- For a perfect code with radius t, a pattern decodes correctly exactly
  when its weight is at most t, for every message:
  Pc = sum over w <= t of C(n, w) p^w (1 - p)^(n - w).  The Golay Type-II
  code's blocks are the Golay code too, so its rate is the same.
- The GF(4) hexacode [6, 3, 4] is not perfect, and ties go to the least
  message index, so Pc depends on the message.  It comes from a brute-force
  nearest search over all 4^6 error patterns, with the field written out
  here by hand.

Two rounds are checked exactly on a code small enough to enumerate: the
[7, 4] Hamming code of g(x) = 1 + x + x^3 with m = 2, as a Type-I code under
the cyclic shift without Chase combining, and as a Type-II code under the
companion matrix of x^4 + x + 1.  Every one of its 16 messages and 2^14
error patterns is decoded by the test's own nearest search (ties to the
least message index) through the candidate ladder (1,) and (2,) in the
Hamming metric, then (1, 2) in the metrics the code's round 2 tries (the
block metric, and for Type-II the Hamming metric before it), and the rate
at depth D is the probability that no candidate of round <= D returns the
sent message.

Each simulation must lie within 5 sigma of the exact rate.  The seeds were
fixed before the first run.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np
import pytest

from grclib import presets
from grclib.codes import LinearCode
from grclib.decoding import Bsc, Candidate, SimConfig, fer_simulate, iter_candidates
from grclib.fields import field_create
from grclib.grc import type1_regular, type2
from grclib.perms import Permutation
from grclib.poly import Poly, companion_matrix

FRAMES = 20_000
HEXACODE = [[1, 0, 0, 1, 2, 2], [0, 1, 0, 2, 1, 2], [0, 0, 1, 2, 2, 1]]  # 2 = alpha
# GF(4) = GF(2)[a] / (a^2 + a + 1), element b0 + 2 b1 for b0 + b1 a: sums are XOR
GF4_MUL = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])
HAMMING_GEN = np.array([np.roll([1, 1, 0, 1, 0, 0, 0], i) for i in range(4)])  # row i: x^i g(x)
HAMMING_MESSAGES = np.arange(16)[:, None] >> np.arange(4) & 1  # index u0 + 2 u1 + 4 u2 + 8 u3
HAMMING_BLOCK1 = HAMMING_MESSAGES @ HAMMING_GEN % 2  # (message, position)


def perfect_fer(n: int, t: int, m: int, p: float) -> float:
    pc = sum(math.comb(n, w) * p**w * (1 - p) ** (n - w) for w in range(t + 1))
    return (1 - pc) ** m


@cache
def hexacode_pc(p: float) -> np.ndarray:
    """Pc(msg) for each of the 64 messages, indexed like the simulator's
    message indices: msg = (u0, u1, u2) has index u0 + 4 u1 + 16 u2."""
    digits = np.arange(64)[:, None] // 4 ** np.arange(3) % 4  # (64, 3)
    gen = np.array(HEXACODE)
    codewords = np.zeros((64, 6), dtype=np.int64)
    for i in range(3):
        codewords ^= GF4_MUL[digits[:, i : i + 1], gen[i]]
    patterns = np.arange(4**6)[:, None] // 4 ** np.arange(6) % 4  # (4096, 6)
    weight = (patterns != 0).sum(axis=1)
    prob = (p / 3) ** weight * (1 - p) ** (6 - weight)
    pc = np.empty(64)
    for msg in range(64):
        received = codewords[msg] ^ patterns
        dist = (received[:, None, :] != codewords[None]).sum(axis=2)  # (4096, 64)
        pc[msg] = prob[dist.argmin(axis=1) == msg].sum()  # argmin: the least index
    return pc


def hexacode_fer(m: int, p: float) -> float:
    return float(((1 - hexacode_pc(p)) ** m).mean())


def _ternary_type1():
    return type1_regular(presets.ternary_golay(), Permutation.cyclic_shift(11), 3)


def _hexacode_type1():
    base = LinearCode.from_rows(field_create(2, 2), HEXACODE)
    return type1_regular(base, Permutation.cyclic_shift(6), 3)


# name: (code, crossover, seed, exact FER_1)
CASES = {
    "golay-type1-shift": (lambda: presets.golay_type1_shift(4), 0.2, 101,
                          lambda: perfect_fer(23, 3, 4, 0.2)),
    "golay-type2-mixed": (presets.golay_type2_mixed, 0.2, 102,
                          lambda: perfect_fer(23, 3, 4, 0.2)),
    "ternary-golay-type1": (_ternary_type1, 0.25, 103, lambda: perfect_fer(11, 2, 3, 0.25)),
    "hexacode-type1": (_hexacode_type1, 0.3, 104, lambda: hexacode_fer(3, 0.3)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_depth1_fer_matches_exact_value(case):
    code, p, seed, exact = CASES[case]
    want = exact()
    cfg = SimConfig(code(), Bsc(p), frames=FRAMES, seed=seed, max_depth=1, code_id=case)
    got = fer_simulate(cfg).fer(1)
    sigma = math.sqrt(want * (1 - want) / FRAMES)
    assert abs(got - want) <= 5 * sigma, (got, want, (got - want) / sigma)


def test_hexacode_success_depends_on_the_message():
    # ties to the least index favour some messages: Pc from 0.42 to 0.74
    pc = hexacode_pc(0.3)
    assert 0.4 < pc.min() < 0.45 and 0.72 < pc.max() < 0.76


def hamming_two_round_fer(
    p: float, c2: np.ndarray, round2_kinds: tuple[str, ...]
) -> tuple[float, float]:
    """The exact FER at depths 1 and 2 of a code with m = 2 whose block 1 is
    the [7, 4] Hamming code and whose block 2 for message i is ``c2[i]``,
    under genie verification, on a BSC with crossover p.  Round 2 tries
    blocks (1, 2) in each of ``round2_kinds``, 'hamming' or 'block'."""
    c1 = HAMMING_BLOCK1
    bits = np.arange(128)[:, None] >> np.arange(7) & 1  # word w as its 7 bits, little-endian
    as_int = lambda words: words @ (1 << np.arange(7))
    # the message of the nearest codeword to every received block and pair;
    # argmin takes the least message index on ties
    block1 = (bits[:, None] != c1).sum(axis=2).argmin(axis=1)  # (128,)
    block2 = (bits[:, None] != c2).sum(axis=2).argmin(axis=1)
    miss1 = bits[:, None, None] != c1  # (128, 1, 16, 7)
    miss2 = bits[None, :, None] != c2  # (1, 128, 16, 7)
    pair = {  # the metrics on (1, 2): (128, 128)
        "hamming": (miss1.sum(axis=3) + miss2.sum(axis=3)).argmin(axis=2),
        "block": (miss1 | miss2).sum(axis=3).argmin(axis=2),
    }
    sent = np.arange(16)[:, None, None]
    r1 = as_int(c1)[:, None, None] ^ np.arange(128)[:, None]  # (message, e1, e2)
    r2 = as_int(c2)[:, None, None] ^ np.arange(128)
    round1 = (block1[r1] == sent) | (block2[r2] == sent)
    round2 = round1 | np.any([pair[kind][r1, r2] == sent for kind in round2_kinds], axis=0)
    weight = bits.sum(axis=1)
    prob = p**weight * (1 - p) ** (7 - weight)  # one block's error pattern
    joint = prob[:, None] * prob  # (e1, e2)
    return tuple(float((joint * ~ok).sum(axis=(1, 2)).mean()) for ok in (round1, round2))


def _hamming_base():
    gf2 = field_create(2)
    return LinearCode.cyclic(gf2, 7, Poly.parse(gf2, "x^3+x+1"))


def _assert_within_5_sigma(res, want):
    for depth, exact in enumerate(want, 1):
        sigma = math.sqrt(exact * (1 - exact) / FRAMES)
        got = res.fer(depth)
        assert abs(got - exact) <= 5 * sigma, (depth, got, exact, (got - exact) / sigma)


def test_two_round_fer_matches_exact_value():
    grc = type1_regular(_hamming_base(), Permutation.cyclic_shift(7), 2)
    # the code and the candidate ladder are the ones the oracle models
    gen = HAMMING_GEN
    assert grc.full_code().gen.data.tolist() == np.hstack([gen, np.roll(gen, -1, axis=1)]).tolist()
    assert list(iter_candidates(grc, 2, combining=False)) == [
        Candidate(1, (1,), "hamming"), Candidate(1, (2,), "hamming"), Candidate(2, (1, 2), "block")
    ]
    # block 2 is block 1 shifted: c2[j] = c1[j + 1 mod 7]
    want = hamming_two_round_fer(0.12, np.roll(HAMMING_BLOCK1, -1, axis=1), ("block",))
    assert want == pytest.approx((0.040491, 0.030466), abs=5e-7)
    cfg = SimConfig(grc, Bsc(0.12), frames=FRAMES, seed=5, max_depth=2, combining=False,
                    code_id="hamming-type1")
    _assert_within_5_sigma(fer_simulate(cfg), want)


def test_type2_two_round_fer_matches_exact_value():
    gf2 = field_create(2)
    grc = type2(_hamming_base(), companion_matrix(Poly.parse(gf2, "x^4+x+1")), 2)
    # block 2 of message u is (uB)G, B the companion matrix of x^4 + x + 1
    b = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 1, 0, 0]])
    gen = HAMMING_GEN
    assert grc.full_code().gen.data.tolist() == np.hstack([gen, b @ gen % 2]).tolist()
    assert list(iter_candidates(grc, 2)) == [
        Candidate(1, (1,), "hamming"), Candidate(1, (2,), "hamming"),
        Candidate(2, (1, 2), "hamming"), Candidate(2, (1, 2), "block"),
    ]
    want = hamming_two_round_fer(0.12, HAMMING_MESSAGES @ b @ gen % 2, ("hamming", "block"))
    # the Type-I code of the same base reaches 0.030466 at depth 2
    assert want == pytest.approx((0.040491, 0.025134), abs=5e-7)
    cfg = SimConfig(grc, Bsc(0.12), frames=FRAMES, seed=6, max_depth=2, code_id="hamming-type2")
    _assert_within_5_sigma(fer_simulate(cfg), want)
