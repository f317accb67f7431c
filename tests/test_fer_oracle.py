"""The simulator's depth-1 frame-error rate against an exact value.

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
from grclib.decoding import Bsc, SimConfig, fer_simulate
from grclib.fields import field_create
from grclib.grc import type1_regular
from grclib.perms import Permutation

FRAMES = 20_000
HEXACODE = [[1, 0, 0, 1, 2, 2], [0, 1, 0, 2, 1, 2], [0, 0, 1, 2, 2, 1]]  # 2 = alpha
# GF(4) = GF(2)[a] / (a^2 + a + 1), element b0 + 2 b1 for b0 + b1 a: sums are XOR
GF4_MUL = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])


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
