import random
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grclib import decoding, kernels
from grclib.codes import (
    Block,
    BlockView,
    Hamming,
    LinearCode,
    block_weight,
    hamming_weight,
)
from grclib.fields import field_create
from grclib.grc import distance_profile, from_qc_generators
from grclib.kernels import DimensionCapError
from grclib.matrices import Matrix
from grclib.poly import Poly

GF2 = field_create(2)
GF3 = field_create(3)


# ---------------------------------------------------------------------------
# independent oracle: plain-python enumeration over all messages


def _oracle_codewords(field, rows):
    k = len(rows)
    n = len(rows[0])
    for msg in product(range(field.q), repeat=k):
        cw = [0] * n
        for coef, row in zip(msg, rows):
            if coef:
                for j in range(n):
                    if row[j]:
                        cw[j] = field.add(cw[j], field.mul(coef, row[j]))
        yield msg, tuple(cw)


def _oracle_block_weight(v, m):
    n = len(v) // m
    return sum(1 for j in range(n) if any(v[i * n + j] for i in range(m)))


def _oracle_min_distance(field, rows, m):
    best = None
    for msg, cw in _oracle_codewords(field, rows):
        if any(cw):
            w = _oracle_block_weight(cw, m)
            best = w if best is None else min(best, w)
    return best


def _oracle_subset_minima(field, rows, m):
    """(block_min, ham_min) per subset bitmask, None where the projection is zero."""
    n = len(rows[0]) // m
    block_min = [None] * (1 << m)
    ham_min = [None] * (1 << m)
    for _, cw in _oracle_codewords(field, rows):
        for t in range(1, 1 << m):
            proj = tuple(x for i in range(m) if t >> i & 1 for x in cw[i * n : (i + 1) * n])
            if any(proj):
                w = _oracle_block_weight(proj, bin(t).count("1"))
                h = hamming_weight(proj)
                block_min[t] = w if block_min[t] is None else min(block_min[t], w)
                ham_min[t] = h if ham_min[t] is None else min(ham_min[t], h)
    return block_min, ham_min


# ---------------------------------------------------------------------------
# weights


def test_block_weight_examples():
    assert block_weight((1, 0, 0, 0, 1, 0), 2) == 2
    assert block_weight((0,) * 12, 3) == 0
    assert block_weight((1, 0, 0, 1, 0, 0), 2) == 1


def test_block_weight_needs_divisible_length():
    with pytest.raises(ValueError):
        block_weight((1, 0, 0), 2)


def test_hamming_weight():
    assert hamming_weight((1, 0, 2)) == 2
    assert hamming_weight(()) == 0


def test_block_weight_m1_equals_hamming():
    rng = random.Random(99)
    for _ in range(1000):
        v = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 20)))
        assert block_weight(v, 1) == hamming_weight(v)


@given(
    st.integers(1, 4),
    st.lists(st.integers(0, 2), min_size=1, max_size=36),
)
@settings(max_examples=200)
def test_block_weight_bracketing(m, vals):
    v = tuple(vals[: (len(vals) // m) * m])
    if not v:
        return
    n = len(v) // m
    bw = block_weight(v, m)
    hw = hamming_weight(v)
    assert -(-hw // m) <= bw <= min(n, hw)


def test_block_view():
    bv = BlockView((1, 2, 3, 4, 5, 6), 2)
    assert bv.n == 3
    assert bv.block(0) == (1, 2, 3)
    assert bv.block(1) == (4, 5, 6)
    assert bv.column(1) == (2, 5)
    assert bv.weight() == 3


# ---------------------------------------------------------------------------
# distances


def test_golay_distance(golay):
    assert golay.min_distance() == 7


def test_simplex_distance(simplex):
    assert simplex.min_distance() == 8


def test_block_metric_min_distance_matches_oracle():
    rng = random.Random(7)
    for q, k, mn in [(2, 4, 8), (3, 3, 6), (2, 5, 12), (11, 2, 4), (4, 3, 6)]:
        field = field_create(2, 2) if q == 4 else field_create(q)
        while True:
            rows = [[rng.randrange(q) for _ in range(mn)] for _ in range(k)]
            mat = Matrix.from_rows(field, rows)
            if mat.rank() == k:
                break
        code = LinearCode.from_rows(field, rows)
        for m in (1, 2):
            got = code.min_distance(Block(m))
            assert got == _oracle_min_distance(field, rows, m)


# q -> ((p, e), largest k whose q^k codewords the plain-python oracle enumerates quickly)
_ORACLE_FIELDS = {2: ((2, 1), 6), 3: ((3, 1), 4), 4: ((2, 2), 3), 5: ((5, 1), 3),
                  7: ((7, 1), 2), 8: ((2, 3), 2), 9: ((3, 2), 2)}


@st.composite
def _small_codes(draw):
    q = draw(st.sampled_from(sorted(_ORACLE_FIELDS)))
    (p, e), kmax = _ORACLE_FIELDS[q]
    field = field_create(p, e)
    m = draw(st.integers(1, 3))
    nb = draw(st.integers(2, 6) | st.integers(63, 70))
    k = draw(st.integers(2, min(kmax, m * nb)))
    rows = draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=m * nb, max_size=m * nb),
        min_size=k, max_size=k,
    ))
    assume(Matrix.from_rows(field, rows).rank() == k)
    return field, rows, m


@given(_small_codes(), st.data())
@settings(max_examples=60, deadline=None)
def test_kernels_match_oracle_across_chunks(code, data):
    field, rows, m = code
    q, k, n = field.q, len(rows), len(rows[0])
    nb = n // m
    inf = np.iinfo(np.int64).max
    oracle = dict(_oracle_codewords(field, rows))
    received = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    floor = data.draw(st.tuples(*[st.lists(st.integers(0, n + 1), min_size=1 << m,
                                           max_size=1 << m)] * 2))
    want_block, want_ham = _oracle_subset_minima(field, rows, m)
    exact = [[inf if v is None else v for v in want] for want in (want_block, want_ham)]
    # one subset's floor one above its true minimum, every other floor at it
    kind, t = data.draw(st.sampled_from(
        [(j, t) for j in (0, 1) for t in range(1, 1 << m) if exact[j][t] != inf]))
    raised = [list(want) for want in exact]
    raised[kind][t] += 1
    with pytest.MonkeyPatch.context() as mp:
        # chunks of q messages: every code with k >= 2 spans several chunks
        mp.setattr(kernels, "_CHUNK_BUDGET", 1)
        block_min, ham_min = kernels.subset_minima(field, rows, m)
        floored = kernels.subset_minima(field, rows, m, floor=floor)
        at_minima = kernels.subset_minima(field, rows, m, floor=exact)
        above = kernels.subset_minima(field, rows, m, floor=raised)
        dist = kernels.min_block_distance(field, rows, m)
        hist = kernels.weight_histogram(field, rows, m)
        table = kernels.build_table(field, rows, m)
    assert [None if b == inf else int(b) for b in block_min[1:]] == want_block[1:]
    assert [None if h == inf else int(h) for h in ham_min[1:]] == want_ham[1:]
    # a floored sweep returns upper bounds, exact unless one is below its floor
    for got, want in zip(floored, exact):
        assert all(g >= w for g, w in zip(got.tolist(), want))
    if not any(g < f for got, low in zip(floored, floor) for g, f in zip(got.tolist(), low)):
        assert [got.tolist() for got in floored] == exact
    assert [got.tolist() for got in at_minima] == exact
    assert above[kind][t] == exact[kind][t] < raised[kind][t]
    assert dist == _oracle_min_distance(field, rows, m)
    want_hist = [0] * (nb + 1)
    for cw in oracle.values():
        want_hist[_oracle_block_weight(cw, m)] += 1
    assert hist.tolist() == want_hist
    # decoding: distances from a received word on every block subset, in
    # message-index order (digits little-endian), and the first argmin
    assert table.size == len(oracle)
    words = [oracle[tuple(i // q**j % q for j in range(k))] for i in range(q**k)]
    for t in range(1, 1 << m):
        blocks = [b for b in range(m) if t >> b & 1]
        differs = [[[cw[b * nb + j] != received[b * nb + j] for j in range(nb)] for b in blocks]
                   for cw in words]
        want = {"hamming": [sum(map(sum, d)) for d in differs],
                "block": [sum(map(any, zip(*d))) for d in differs]}
        assert kernels.hamming_distances(table, received, blocks).tolist() == want["hamming"]
        assert kernels.block_distances(table, received, blocks).tolist() == want["block"]
        for metric, dists in want.items():
            best = min(dists)
            assert decoding._nearest(table, received, blocks, metric) == (dists.index(best), best)


def test_profile_of_blocks_longer_than_64():
    g = Poly.xn_minus_1(GF2, 65) // Poly.parse(GF2, "x+1")
    prof = distance_profile(from_qc_generators(65, [g, g]))
    assert (prof.sbdh, prof.shdh) == ((65, 65), (65, 130))


def test_weights_at_and_past_the_uint8_boundary():
    """Weights of 255 and more, where the reducers' counting dtype widens."""
    inf = np.iinfo(np.int64).max
    # one all-ones row, 3 blocks of 85: subset t has block weight 85 and
    # Hamming weight 85 |t|, up to 255 for the full subset
    block_min, ham_min = kernels.subset_minima(GF2, [[1] * 255], 3)
    assert block_min.tolist() == [inf] + [85] * 7
    assert ham_min.tolist() == [inf] + [85 * bin(t).count("1") for t in range(1, 8)]
    # codewords of Hamming weight 258, 129 and 129, in 3 blocks of 86
    rows = [[1] * 258, [1] * 129 + [0] * 129]
    block_min, ham_min = kernels.subset_minima(GF2, rows, 3)
    assert (int(block_min[7]), int(ham_min[7])) == (86, 129)
    want_block, want_ham = _oracle_subset_minima(GF2, rows, 3)
    assert block_min[1:].tolist() == want_block[1:]
    assert ham_min[1:].tolist() == want_ham[1:]
    # one block of 300 symbols
    for field in (GF2, GF3):
        assert kernels.min_block_distance(field, [[1] * 300], 1) == 300
        hist = kernels.weight_histogram(field, [[1] * 300], 1)
        assert (hist[0], hist[300], hist.sum()) == (1, field.q - 1, field.q)


def test_concurrent_sweeps_share_no_state():
    """Sweeps reuse their chunk buffers; threads must not see each other's."""
    rng = random.Random(11)
    codes = []
    for field, k, m, nb in [(GF2, 14, 2, 31), (GF2, 13, 4, 20), (GF3, 8, 2, 11), (GF2, 12, 3, 70)]:
        while True:
            rows = [[rng.randrange(field.q) for _ in range(m * nb)] for _ in range(k)]
            if Matrix.from_rows(field, rows).rank() == k:
                break
        codes.append((field, rows, m))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_CHUNK_BUDGET", 1 << 8)  # many chunks per sweep
        serial = [kernels.subset_minima(*code) for code in codes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(kernels.subset_minima, *code) for code in codes * 2]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
    for got, want in zip(results, serial * 2):
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tolist() == want[1].tolist()


def test_block1_equals_hamming(golay):
    assert golay.min_distance(Block(1)) == golay.min_distance(Hamming())


def test_weight_distribution_simplex(simplex):
    assert simplex.weight_distribution().as_dict() == {0: 1, 8: 15}


def test_weight_distribution_repetition():
    code = LinearCode.from_rows(GF2, [[1, 1, 1]])
    assert code.weight_distribution().as_dict() == {0: 1, 3: 1}


def test_golay_weight_seven_count(golay):
    wd = golay.weight_distribution()
    assert wd[7] == 253
    assert wd.total() == 2 ** 12
    assert wd.min_positive() == golay.min_distance()


def test_distribution_matches_oracle_small():
    rng = random.Random(3)
    rows = [[rng.randrange(3) for _ in range(7)] for _ in range(3)]
    while Matrix.from_rows(GF3, rows).rank() != 3:
        rows = [[rng.randrange(3) for _ in range(7)] for _ in range(3)]
    code = LinearCode.from_rows(GF3, rows)
    expect: dict[int, int] = {}
    for _, cw in _oracle_codewords(GF3, rows):
        w = hamming_weight(cw)
        expect[w] = expect.get(w, 0) + 1
    assert code.weight_distribution().as_dict() == expect


def test_dimension_cap():
    rows = [[1 if i == j else 0 for j in range(10)] for i in range(8)]
    code = LinearCode.from_rows(GF2, rows)
    with pytest.raises(DimensionCapError):
        code.min_distance(cap=4)
    assert code.min_distance(cap=8) == 1
    # the default cap refuses k = 30 without an explicit override
    big = LinearCode.from_rows(GF2, [[1 if i == j else 0 for j in range(40)] for i in range(30)])
    with pytest.raises(DimensionCapError):
        big.min_distance()


# ---------------------------------------------------------------------------
# derived codes


def test_sub_block_identity(golay_shift4):
    full = golay_shift4.full_code()
    sub = full.sub_block_code(4, [1, 2, 3, 4])
    assert sub.n == full.n and sub.k == full.k
    assert sub.min_distance(Block(4)) == full.min_distance(Block(4))


def test_sub_block_single_is_base(golay_shift4, golay):
    full = golay_shift4.full_code()
    sub = full.sub_block_code(4, [2])
    assert (sub.n, sub.k) == (23, 12)
    assert sub.min_distance() == golay.min_distance()


def test_sub_block_pair_hamming_distance(golay_mixed):
    # the published SHDH_2 = 14 is the minimum over pairs, attained by {3,4}
    full = golay_mixed.full_code()
    pair_distances = {
        pair: full.sub_block_code(4, pair).min_distance()
        for pair in ((1, 2), (3, 4))
    }
    assert pair_distances[(3, 4)] == 14
    assert pair_distances[(1, 2)] == 16
    assert min(pair_distances.values()) == 14


def test_sub_block_projection_shape(golay_mixed):
    full = golay_mixed.full_code()
    raw = full.sub_block_projection(4, [1, 3])
    assert (raw.nrows, raw.ncols) == (12, 46)
    assert raw.rank() == 12


def test_sub_block_errors(golay_shift4):
    full = golay_shift4.full_code()
    with pytest.raises(ValueError):
        full.sub_block_code(4, [])
    with pytest.raises(ValueError):
        full.sub_block_code(4, [5])


def test_extend_golay(golay):
    ext = golay.extend()
    assert (ext.n, ext.k) == (24, 12)
    assert ext.min_distance() == 8


def test_extend_ternary(ternary_golay):
    ext = ternary_golay.extend()
    assert (ext.n, ext.k) == (12, 6)
    assert ext.min_distance() == 6
    # parity column: every row sums to zero
    for row in ext.gen.rows():
        total = 0
        for x in row:
            total = GF3.add(total, x)
        assert total == 0


def test_extend_distance_is_d_or_d_plus_1():
    rng = random.Random(21)
    for q in (2, 3):
        field = field_create(q)
        for _ in range(5):
            k, n = rng.randint(2, 5), rng.randint(6, 10)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            if Matrix.from_rows(field, rows).rank() != k:
                continue
            code = LinearCode.from_rows(field, rows)
            d = code.min_distance()
            assert code.extend().min_distance() in (d, d + 1)


def test_support_full_length(simplex):
    assert simplex.effective_length() == 15
    assert simplex.is_full_length()


def test_support_single_coordinate():
    code = LinearCode.from_rows(GF2, [[1, 0, 0]])
    assert code.support() == frozenset({1})
    assert code.effective_length() == 1
    assert not code.is_full_length()


def test_support_column_rule_matches_enumeration(golay):
    # random 5-dim subcode: union of codeword supports == nonzero columns
    rng = random.Random(11)
    while True:
        picks = [rng.randrange(2 ** 12) for _ in range(5)]
        rows = []
        for msg_int in picks:
            msg = [(msg_int >> i) & 1 for i in range(12)]
            rows.append(list(golay.encode(msg)))
        if Matrix.from_rows(GF2, rows).rank() == 5:
            break
    sub = LinearCode.from_rows(GF2, rows)
    enum_support = set()
    for _, cw in _oracle_codewords(GF2, rows):
        enum_support |= {j + 1 for j, x in enumerate(cw) if x}
    assert sub.support() == frozenset(enum_support)


# ---------------------------------------------------------------------------
# b-symbol metric


def test_b_symbol_golay(golay):
    assert golay.b_symbol_distance(4) == 15


def test_b_symbol_b1_is_hamming(golay):
    assert golay.b_symbol_distance(1) == 7


def test_b_symbol_pair_distance(golay):
    d2 = golay.b_symbol_distance(2)
    assert d2 == 11  # equals d + ceil(d/2) exactly here
    assert d2 >= 7 + -(-7 // 2)


@pytest.mark.parametrize("b", [2, 3, 4])
def test_b_symbol_lower_bound(golay, simplex, b):
    # cyclic codes: d_b >= sum_{i<b} ceil(d / q^i)
    for code, d in ((golay, 7), (simplex, 8)):
        bound = sum(-(-d // 2 ** i) for i in range(b))
        assert code.b_symbol_distance(b) >= bound


# ---------------------------------------------------------------------------
# serialization


def test_text_roundtrip(golay):
    text = golay.to_text()
    back, m = LinearCode.from_text(text)
    assert m is None
    assert back == golay
    assert back.gen == golay.gen


def test_text_roundtrip_blocked(golay_shift4):
    full = golay_shift4.full_code()
    text = full.to_text(m=4)
    back, m = LinearCode.from_text(text)
    assert m == 4
    assert back.gen == full.gen


def test_text_rejects_bad_header():
    with pytest.raises(ValueError):
        LinearCode.from_text("2 3\n1 0 1\n")


def test_text_names_missing_parts():
    with pytest.raises(ValueError, match="header"):
        LinearCode.from_text("")
    with pytest.raises(ValueError, match="generator rows"):
        LinearCode.from_text("2 3 2\n1 0 1\n")


def test_cyclic_requires_divisor():
    with pytest.raises(ValueError):
        LinearCode.cyclic(GF2, 23, Poly.parse(GF2, "x^2+x+1"))


def test_is_cyclic(golay, simplex):
    assert golay.is_cyclic()
    assert simplex.is_cyclic()
    assert not LinearCode.from_rows(GF2, [[1, 0, 0]]).is_cyclic()
