"""The coset-leader decoder of one block against the sweep it stands in for.

``kernels.nearest`` stays the oracle: for every received word the syndrome
decoder must return the same message index, the nearest codeword in the
block with ties going to the smallest index.  Tie-heavy words are a codeword
plus a pattern of the covering-radius weight; on catalog row 5's [31, 20]
block they land in cosets with up to 186 minimum-weight leaders.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from functools import cache

import numpy as np
from hypothesis import given, settings, strategies as st

from grclib import kernels, presets
from grclib.codes import LinearCode
from grclib.decoding import Bsc, Candidate, GrcDecoder, SimConfig, fer_simulate
from grclib.fields import field_create
from grclib.grc import as_blocked, from_qc_generators
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
    return from_qc_generators(31, [Poly.parse(GF2, g) for g in ROW5_GENS])


def _block(grc, b):
    return grc.gen.data[:, b * grc.n : (b + 1) * grc.n]


# name: (q, block generator, covering radius)
FIXED = {
    "row5-block1": lambda: (2, _block(qc20(), 0), 5),
    "row5-block2": lambda: (2, _block(qc20(), 1), 5),
    "golay": lambda: (2, presets.binary_golay().gen.data, 3),
    "ternary-golay": lambda: (3, presets.ternary_golay().gen.data, 2),
    "gf3-8-5": lambda: (3, np.array([
        [1, 0, 0, 0, 0, 2, 2, 0], [0, 1, 0, 0, 0, 2, 1, 1], [0, 0, 1, 0, 0, 1, 0, 2],
        [0, 0, 0, 1, 0, 0, 0, 1], [0, 0, 0, 0, 1, 1, 1, 0]]), 2),
    "gf4-7-4": lambda: (4, np.array([
        [1, 0, 0, 0, 3, 0, 3], [0, 1, 0, 0, 3, 3, 0], [0, 0, 1, 0, 1, 2, 1],
        [0, 0, 0, 1, 2, 2, 2]]), 2),
}


@cache
def fixed_case(name):
    q, block, radius = FIXED[name]()
    field = FIELDS[q]
    table = kernels.build_table(field, block.tolist(), 1)
    return field, block, radius, table, kernels.coset_leaders(field, block)


def _nearest(table, words):
    return kernels.nearest(table, kernels.pack_rows(table.field, words, 1), [0], False)[0]


@st.composite
def small_codes(draw):
    q = draw(st.sampled_from(sorted(FIELDS)))
    n = draw(st.integers(1, {2: 10, 3: 7, 4: 6}[q]))
    k = draw(st.integers(1, n))
    symbol = st.integers(0, q - 1)
    rows = draw(st.lists(st.lists(symbol, min_size=n, max_size=n), min_size=k, max_size=k))
    words = draw(st.lists(st.lists(symbol, min_size=n, max_size=n), min_size=1, max_size=30))
    return FIELDS[q], np.array(rows), np.array(words, dtype=np.int16)


@settings(max_examples=150, deadline=None)
@given(small_codes())
def test_random_codes_match_nearest(code):
    """Random generators over GF(2), GF(3) and GF(4); low rates and small
    lengths make ties common.  A rank-deficient code gets no table, and a
    full-rank one either none (more leaders than codewords) or a table that
    decodes like the sweep."""
    field, block, words = code
    k, n = block.shape
    leaders = kernels.coset_leaders(field, block)
    if Matrix(field, k, n, block).rank() < k:
        assert leaders is None
        return
    table = kernels.build_table(field, block.tolist(), 1)
    assert leaders is None or leaders.decode(words).tolist() == _nearest(table, words).tolist()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIXED)), st.data())
def test_tie_heavy_words_match_nearest(name, data):
    """A codeword plus a pattern of weight radius - 1 or radius, and random
    words, on fixed codes that get a table under the q^k leader bound."""
    field, block, radius, table, leaders = fixed_case(name)
    assert leaders is not None
    k, n = block.shape
    q = field.q
    frames = data.draw(st.integers(1, 12))
    index = np.array(data.draw(st.lists(st.integers(0, table.size - 1), min_size=frames,
                                        max_size=frames)))
    words = table.codewords(index, n)[:, 0].astype(np.int16)
    add, _ = field.tables()
    for f in range(frames):
        weight = data.draw(st.integers(radius - 1, radius))
        where = data.draw(st.lists(st.integers(0, n - 1), min_size=weight, max_size=weight,
                                   unique=True))
        for j in where:
            words[f, j] = add[words[f, j], data.draw(st.integers(1, q - 1))]
    noise = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                               max_size=4))
    words = np.concatenate([words, np.array(noise, dtype=np.int16).reshape(-1, n)])
    assert leaders.decode(words).tolist() == _nearest(table, words).tolist()


def test_qary_indices_beyond_int16_match_nearest():
    """GF(3) blocks of dimension 10 and 11, whose message indices pass 2^15:
    a leader's base-q sums must not be taken in the int16 of the field's add
    table, where they wrapped (k = 10) or overflowed (k = 11)."""
    rng = np.random.default_rng(1)
    for k, n in ((10, 15), (11, 17)):
        block = np.hstack([np.eye(k, dtype=np.int64), rng.integers(0, 3, (k, n - k))])
        leaders = kernels.coset_leaders(FIELDS[3], block)
        table = kernels.build_table(FIELDS[3], block.tolist(), 1)
        words = rng.integers(0, 3, (200, n)).astype(np.int16)
        assert leaders.decode(words).tolist() == _nearest(table, words).tolist(), k


def test_leader_counts():
    """Every minimum-weight leader: 2^11 cosets of the [31, 20] block, 12
    leaders per coset on average and 186 at most; the perfect Golay code has
    one per coset."""
    for name, total, most in (("row5-block1", 24553, 186), ("golay", 2048, 1)):
        *_, leaders = fixed_case(name)
        counts = np.diff(leaders.start)
        assert (len(counts), len(leaders.leaders), counts.max()) == (2048, total, most)
        assert counts.min() == 1


def test_rank_deficient_block_falls_back():
    # block 1 spans one row of two: its codewords each have two messages
    grc = as_blocked(LinearCode.from_rows(GF2, [[1, 0, 1, 1, 0, 0], [1, 0, 1, 0, 1, 1]]), 2)
    dec = GrcDecoder(grc)
    assert dec._block_leaders(0) is None
    assert dec._block_leaders(1) is not None
    words = np.array([[(i >> j) & 1 for j in range(3)] for i in range(8)], dtype=np.int16)
    for b in range(2):
        packed = kernels.pack_rows(GF2, words, 1)
        want = kernels.nearest(dec.table, packed, [b], False)[0]
        assert dec._decode_block(b, words).tolist() == want.tolist()


def test_more_leaders_than_codewords_falls_back():
    # [4, 2]: 4 cosets but 9 leaders, 2 per coset of weight 1 and 4 of weight 2
    block = np.array([[1, 1, 0, 0], [0, 0, 1, 1]])
    assert kernels.coset_leaders(GF2, block) is None
    # [3, 1]: more syndromes than codewords, so more leaders too
    assert kernels.coset_leaders(GF2, np.array([[1, 1, 1]])) is None
    dec = GrcDecoder(as_blocked(LinearCode.from_rows(GF2, block.tolist()), 1))
    assert dec._block_leaders(0) is None
    words = np.array([[(i >> j) & 1 for j in range(4)] for i in range(16)], dtype=np.int16)
    want = kernels.nearest(dec.table, kernels.pack_rows(GF2, words, 1), [0], False)[0]
    assert dec._decode_block(0, words).tolist() == want.tolist()


def test_single_block_block_metric_candidate_sweeps():
    # a hand-built block-metric candidate on one block decodes by syndrome,
    # like a Hamming one: on one block the union of supports is the Hamming
    # weight, so it agrees with the block-metric sweep
    dec = GrcDecoder(presets.golay_type1_shift(2))
    rng = np.random.default_rng(5)
    for _ in range(20):
        received = rng.integers(0, 2, dec.m * dec.n).tolist()
        for b in (1, 2):
            packed = kernels.pack_rows(GF2, np.array([received]), dec.m)
            want = kernels.nearest(dec.table, packed[:, [b - 1]], [b - 1], True)[0][0]
            got = dec.candidate_message(received, Candidate(1, (b,), "block"))
            assert got == tuple(kernels.message_digits(2, want, dec.k).tolist())


def test_identical_blocks_share_a_table(monkeypatch):
    built = []

    def counting(*args):
        built.append(args)
        return build(*args)

    build = kernels.coset_leaders
    monkeypatch.setattr(kernels, "coset_leaders", counting)
    dec = GrcDecoder(presets.golay_classical_repetition(4))
    tables = {id(dec._block_leaders(b)) for b in range(4)}
    assert len(tables) == 1 and len(built) == 1
    # cyclic shifts of the Golay columns: four generators, four tables
    dec = GrcDecoder(presets.golay_type1_shift(4))
    assert len({id(dec._block_leaders(b)) for b in range(4)}) == 4 and len(built) == 5


def test_concurrent_first_decodes_build_each_table_once(monkeypatch):
    # more threads than cores, each asking for every block in its own order
    built = []

    def counting(*args):
        built.append(args)
        return build(*args)

    build = kernels.coset_leaders
    monkeypatch.setattr(kernels, "coset_leaders", counting)
    dec = GrcDecoder(presets.golay_type2_mixed())
    orders = [[(b + t) % 4 for b in range(4)] for t in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            runs = [pool.submit(lambda o: {b: id(dec._block_leaders(b)) for b in o}, o)
                    for o in orders]
            got = [run.result(timeout=60) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 4
    assert all(tables == got[0] for tables in got)


def test_qc20_crc_threads_match_serial_with_shared_tables(monkeypatch):
    """The qc20-crc benchmark config at threads=2 gives the rows of
    threads=1.  Both threads decode through the code's one decoder, whose
    two tables the serial run built."""
    built = []

    def counting(*args):
        built.append(args)
        return build(*args)

    build = kernels.coset_leaders
    monkeypatch.setattr(kernels, "coset_leaders", counting)
    cfg = SimConfig(qc20.__wrapped__(), Bsc(0.1), frames=64, seed=11, max_depth=2,
                    crc=Poly.parse(GF2, "x^8+x^2+x+1"), code_id="qc20-crc")
    serial = fer_simulate(cfg)
    assert len(built) == 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = fer_simulate(replace(cfg, threads=2))
    finally:
        sys.setswitchinterval(interval)
    assert len(built) == 2
    assert threaded.csv_rows() == serial.csv_rows()
