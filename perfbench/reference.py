"""Brute-force reference for the grid workload.

A plain enumeration of all q^k messages, written without grclib: field
arithmetic comes from its own tables (prime fields by residues, GF(4) as
polynomials over GF(2) modulo x^2 + x + 1, with element a0 + 2 a1 for
a0 + a1 x, the encoding grclib documents), and weights are counted on
unpacked symbols.  It runs outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

CHUNK = 1 << 15


def _gf_tables(q: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(add, mul) tables for GF(4); None for prime q (residue arithmetic)."""
    if q in (2, 3, 5, 7, 11, 13):
        return None
    if q != 4:
        raise ValueError(f"reference has no arithmetic for q={q}")
    add = np.array([[a ^ b for b in range(4)] for a in range(4)], dtype=np.int16)

    def mul(a: int, b: int) -> int:
        prod = 0
        for i in range(2):
            if b >> i & 1:
                prod ^= a << i
        if prod & 4:
            prod ^= 0b111  # x^2 = x + 1
        return prod

    mtab = np.array([[mul(a, b) for b in range(4)] for a in range(4)], dtype=np.int16)
    return add, mtab


@dataclass(frozen=True)
class Exact:
    """Exact distances of one blocked code."""

    sbdh: tuple[int, ...]
    shdh: tuple[int, ...]
    hamming: int  # minimum Hamming distance of the whole code
    block_hist: tuple[int, ...]  # codeword count by block weight, 0..n


def enumerate_exact(q: int, rows: Sequence[Sequence[int]], m: int) -> Exact:
    """Every codeword, as the sum of a low-message and a high-message part:
    the q^lo combinations of the first rows are tabulated once, and each
    high message adds one fixed word to the whole table."""
    gen = np.array(rows, dtype=np.int64)
    k, length = gen.shape
    nb = length // m
    tables = _gf_tables(q)

    def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % q if tables is None else tables[0][a, b]

    def span(part: np.ndarray) -> np.ndarray:
        """All q^len(part) combinations of the rows in ``part``."""
        words = np.zeros((1, length), dtype=np.int16)
        for row in part:
            if tables is None:
                scaled = [(c * row) % q for c in range(q)]
            else:
                scaled = [tables[1][c, row] for c in range(q)]
            words = np.concatenate([add(words, s[None, :].astype(np.int16)) for s in scaled])
        return words

    lo = min(k, max(1, int(np.log(CHUNK) / np.log(q))))
    low = span(gen[:lo])
    high = span(gen[lo:])
    nsub = 1 << m
    member = np.array([[t >> b & 1 for t in range(1, nsub)] for b in range(m)], dtype=np.int32)
    touches = np.array(
        [[int(v & t != 0) for t in range(1, nsub)] for v in range(nsub)], dtype=np.int32
    )  # column support pattern v meets subset t
    big = np.iinfo(np.int32).max
    block_min = np.full(nsub - 1, big, dtype=np.int64)
    ham_min = np.full(nsub - 1, big, dtype=np.int64)
    hist = np.zeros(nb + 1, dtype=np.int64)
    rows_idx = np.repeat(np.arange(len(low)) * nsub, nb)
    bit = (1 << np.arange(m, dtype=np.int64))[None, :, None]
    for h in high:
        nz = (add(low, h[None, :]) != 0).reshape(len(low), m, nb)
        ham = nz.sum(axis=2, dtype=np.int32) @ member  # (C, nsub-1)
        pattern = (nz * bit).sum(axis=1)  # (C, nb) blocks present in each column
        counts = np.bincount(rows_idx + pattern.ravel(), minlength=len(low) * nsub)
        blk = counts.reshape(len(low), nsub).astype(np.int32) @ touches  # (C, nsub-1)
        live = ham > 0
        ham_min = np.minimum(ham_min, np.where(live, ham, big).min(axis=0))
        block_min = np.minimum(block_min, np.where(live, blk, big).min(axis=0))
        hist += np.bincount(blk[:, -1], minlength=nb + 1)
    sizes = member.sum(axis=0)
    sbdh = tuple(int(block_min[sizes == r].min()) for r in range(1, m + 1))
    shdh = tuple(int(ham_min[sizes == r].min()) for r in range(1, m + 1))
    return Exact(sbdh, shdh, int(ham_min[-1]), tuple(int(c) for c in hist))
