"""Information-set decoding of several blocks against the sweep it stands in
for.

``kernels.nearest`` stays the oracle: for every received word
``kernels.isd_nearest`` must return the same message index and distance,
the nearest codeword with ties going to the smallest index.  Words are
decoded in the Hamming metric on mb blocks (symbols of g = 1 column) and
in the block metric (symbols of g = mb columns).  Tie-heavy words are a
codeword plus a pattern of about half the minimum distance, on catalog
row 5's [62, 20] code, whose two blocks the HARQ benchmark decodes
together.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grclib import kernels, presets
from grclib.codes import Block, LinearCode
from grclib.decoding import Candidate, GrcDecoder, md_decode
from grclib.fields import field_create
from grclib.grc import from_qc_generators
from grclib.matrices import Matrix
from grclib.poly import Poly

FIELDS = {2: field_create(2), 3: field_create(3), 4: field_create(2, 2)}
GF2 = FIELDS[2]

# catalog row 5 under the interpretation the catalog verifier reports
ROW5_GENS = (
    "x^11+x^10+x^8+x^6+x^2+1",
    "x^29+x^26+x^24+x^22+x^20+x^18+x^17+x^16+x^15+x^14+x^13+x^12+x^9+x^7+x^6+x^3+x^2+x",
)


@cache
def qc20():
    grc = from_qc_generators(31, [Poly.parse(GF2, g) for g in ROW5_GENS])
    return grc, GrcDecoder(grc)


def _decode(field, gen, words, union, table=None):
    """(isd_nearest, nearest, rows swept) for ``words`` (F, mb, n) on the
    code of ``gen`` (k, mb, n)."""
    k, mb, n = gen.shape
    table = table or kernels.build_table(field, gen.reshape(k, -1).tolist(), mb)
    packed = kernels.pack_rows(field, words.reshape(len(words), -1), mb)
    swept = []

    def sweep(rows):
        swept.extend(rows.tolist())
        return kernels.nearest(table, packed[rows], range(mb), union)

    got = kernels.isd_nearest(kernels.info_sets(field, gen, union), words, sweep)
    want = kernels.nearest(table, packed, range(mb), union)
    return got, want, swept


def _same(got, want):
    return got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


@st.composite
def small_codes(draw):
    q = draw(st.sampled_from(sorted(FIELDS)))
    mb = draw(st.integers(1, 3))
    n = draw(st.integers(1, {2: 8, 3: 5, 4: 4}[q]))
    k = draw(st.integers(1, min(mb * n, {2: 8, 3: 5, 4: 4}[q])))
    symbol = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(symbol, min_size=mb * n, max_size=mb * n),
                         min_size=k, max_size=k))
    words = draw(st.lists(st.lists(symbol, min_size=mb * n, max_size=mb * n),
                          min_size=1, max_size=20))
    union = draw(st.booleans())
    return (FIELDS[q], np.array(rows).reshape(k, mb, n),
            np.array(words, dtype=np.int16).reshape(-1, mb, n), union)


@settings(max_examples=200, deadline=None)
@given(small_codes())
def test_random_codes_match_nearest(code):
    """Random generators over GF(2), GF(3) and GF(4) on one to three blocks,
    in both metrics (g = 1, 2 and m); low rates and short blocks make ties
    common.  A generator of rank below k has no information set, and the
    sweep decodes every word."""
    field, gen, words, union = code
    k = gen.shape[0]
    got, want, swept = _decode(field, gen, words, union)
    assert _same(got, want)
    if Matrix(field, k, gen[0].size, gen.reshape(k, -1)).rank() < k:
        assert not len(kernels.info_sets(field, gen, union).pivots)
        assert swept == list(range(len(words)))


def _sets(union):
    grc, dec = qc20()
    return dec._info_sets((0, 1), union)


def test_qc20_sets():
    """Three disjoint sets in both metrics: 20 columns each, or 10 symbols of
    two columns each."""
    for union, sizes in ((False, [1, 20, 190]), (True, [1, 30, 405])):
        sets = _sets(union)
        assert sets.pivots.shape == (3, 20)
        assert sets.counts[:, :3].tolist() == [sizes] * 3
        symbols = [set((sets.pivots[i] % 31 if union else sets.pivots[i]).tolist())
                   for i in range(3)]
        assert all(not symbols[i] & symbols[j] for i in range(3) for j in range(i))


@settings(max_examples=40, deadline=None)
@given(st.booleans(), st.data())
def test_qc20_tie_heavy_words_match_nearest(union, data):
    """Codewords of the [62, 20] code plus about half its minimum distance
    (ud2 = 18 columns, d2 = 14 symbols) of errors, and random words."""
    grc, dec = qc20()
    n, q = grc.n, 2
    frames = data.draw(st.integers(1, 10))
    index = np.array(data.draw(st.lists(st.integers(0, dec.table.size - 1),
                                        min_size=frames, max_size=frames)))
    words = dec.table.codewords(index, n).astype(np.int16)
    for f in range(frames):
        if union:  # flip some block of a few symbols
            for j in data.draw(st.lists(st.integers(0, n - 1), min_size=6, max_size=7,
                                        unique=True)):
                words[f, :, j] ^= np.array(data.draw(st.sampled_from([(1, 0), (0, 1), (1, 1)])),
                                           dtype=np.int16)
        else:
            for pos in data.draw(st.lists(st.integers(0, 2 * n - 1), min_size=8, max_size=9,
                                          unique=True)):
                words[f, pos // n, pos % n] ^= 1
    noise = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=2 * n,
                                        max_size=2 * n), max_size=3))
    words = np.concatenate([words, np.array(noise, dtype=np.int16).reshape(-1, 2, n)])
    packed = dec._pack(words)
    want = kernels.nearest(dec.table, packed, [0, 1], union)
    got = kernels.isd_nearest(_sets(union), words,
                              lambda rows: kernels.nearest(dec.table, packed[rows], [0, 1], union))
    assert _same(got, want)


def test_qc20_decoder_candidates_enumerate(monkeypatch):
    """The decoder sends both (1, 2) candidates of the [62, 20] code through
    the enumeration, not the sweep, and decodes as the sweep does."""
    grc, dec = qc20()
    rng = np.random.default_rng(20)
    sent = rng.integers(0, dec.table.size, 40)
    words = dec.table.codewords(sent, grc.n).astype(np.int16)
    words ^= (rng.random(words.shape) < 0.1).astype(np.int16)
    packed = dec._pack(words)
    nearest, swept = kernels.nearest, []

    def counting(table, w, blocks, union):
        swept.append(len(w))
        return nearest(table, w, blocks, union)

    for kind in ("hamming", "block"):
        with monkeypatch.context() as mp:
            mp.setattr(kernels, "nearest", counting)
            got = dec._decode(words, packed, Candidate(2, (1, 2), kind))
        want = nearest(dec.table, packed, [0, 1], kind == "block")[0]
        assert got.tolist() == want.tolist()
    assert sum(swept) < len(words)


def test_words_past_the_pattern_limit_are_swept():
    """Random words on four Golay blocks lie far from every codeword: with
    7 sets of 12 columns a word at distance 28 or more would need more
    patterns than the 4096 codewords, so the sweep decodes it, and every
    other word is enumerated."""
    grc = presets.golay_type2_mixed()
    gen = grc.gen.data.reshape(grc.dim, grc.m, grc.n)
    rng = np.random.default_rng(7)
    words = rng.integers(0, 2, (60, grc.m, grc.n)).astype(np.int16)
    sent = rng.integers(0, 4096, 20)
    table = kernels.build_table(GF2, grc.gen.rows(), grc.m)
    near = table.codewords(sent, grc.n).astype(np.int16)
    near ^= (rng.random(near.shape) < 0.1).astype(np.int16)
    words = np.concatenate([words, near])
    got, want, swept = _decode(GF2, gen, words, False, table)
    assert _same(got, want)
    assert len(kernels.info_sets(GF2, gen, False).pivots) == 7
    assert 0 < len(swept) < len(words)
    assert sorted(swept) == np.flatnonzero(want[1] >= 28).tolist()


def test_concurrent_decodes_build_each_level_once():
    """Threads decoding on one fresh set of information sets see the same
    levels, each built once, and decode as one thread does."""
    grc, dec = qc20()
    rng = np.random.default_rng(3)
    words = dec.table.codewords(rng.integers(0, dec.table.size, 48), grc.n).astype(np.int16)
    words ^= (rng.random(words.shape) < 0.13).astype(np.int16)
    packed = dec._pack(words)
    gen = dec.gen.reshape(dec.k, dec.m, dec.n)
    sweep = lambda rows: kernels.nearest(dec.table, packed[rows], [0, 1], False)
    serial = kernels.isd_nearest(kernels.info_sets(GF2, gen, False), words, sweep)
    sets = kernels.info_sets(GF2, gen, False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = [pool.submit(kernels.isd_nearest, sets, words[i::4], sweep) for i in range(4)]
            parts = [run.result(timeout=120) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for i, part in enumerate(parts):
        assert part[0].tolist() == serial[0][i::4].tolist()
        assert part[1].tolist() == serial[1][i::4].tolist()
    tops = [level[2] for level in sets.levels]
    assert [t.shape[1] for t in tops] == [int(c) for c in sets.counts[0, : len(tops)]]


def test_md_decode_builds_no_table(monkeypatch, golay, golay_shift4):
    """md_decode enumerates: a word near a codeword decodes with no table."""

    def refuse(*args, **kwargs):
        raise AssertionError("md_decode built a codeword table")

    monkeypatch.setattr(kernels, "build_table", refuse)
    message = (1, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1, 1)
    word = list(golay.encode(message))
    for p in (0, 11, 22):
        word[p] ^= 1
    assert md_decode(golay, word).message == message
    full = golay_shift4.full_code()
    word = list(full.encode(message))
    for p in (0, 23 + 5, 46 + 9):
        word[p] ^= 1
    res = md_decode(full, word, Block(4))
    assert (res.message, res.distance) == (message, 3)


def test_md_decode_errors(golay):
    word = golay.encode((0,) * 12)
    with pytest.raises(ValueError, match="length does not match"):
        md_decode(golay, word[:-1])
    with pytest.raises(ValueError, match="not divisible by block count"):
        md_decode(golay, word, Block(2))
    # the cap refuses only a sweep: Golay words decode on information sets
    rng = np.random.default_rng(11)
    for _ in range(20):
        noisy = (np.array(word) ^ (rng.random(len(word)) < 0.2)).tolist()
        assert md_decode(golay, noisy, cap=11) == md_decode(golay, noisy)
    # while the [5, 1] repetition code's five one-symbol sets outnumber its
    # two codewords, so every word is swept
    repetition = LinearCode.from_rows(GF2, [[1] * 5])
    with pytest.raises(kernels.DimensionCapError, match="2\\^1 codewords above"):
        md_decode(repetition, [1, 0, 1, 1, 0], cap=0)
