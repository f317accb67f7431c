import gc
import random
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from grclib.bounds import bound_suite
from grclib.codes import Block, LinearCode
from grclib import decoding, kernels
from grclib.decoding import (
    AwgnBpskHard,
    Bsc,
    Candidate,
    CrcVerifier,
    GenieVerifier,
    GrcDecoder,
    SimConfig,
    chase_combine,
    fer_simulate,
    iter_candidates,
    md_decode,
    multi_round_decode,
    rng_for,
    transmit,
)
from grclib.fields import field_create
from grclib.grc import (
    distance_profile, from_qc_generators, grc_to_text, type1, type1_regular, type2,
)
from grclib.perms import Permutation
from grclib.poly import Poly, companion_matrix
from grclib import presets

GF2 = field_create(2)
GF4 = field_create(2, 2)
GF9 = field_create(3, 2)
HEXACODE = [[1, 0, 0, 1, 2, 2], [0, 1, 0, 2, 1, 2], [0, 0, 1, 2, 2, 1]]  # 2 = alpha

MSG = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0)


@pytest.fixture(scope="module")
def grc1():
    return presets.golay_type1_shift(4)


@pytest.fixture(scope="module")
def grc2():
    return presets.golay_type2_mixed()


def _corrupt(codeword, row_cols, n=23):
    """Flip (row, col) positions (1-based rows, 0-based cols)."""
    rec = list(codeword)
    for row, col in row_cols:
        rec[(row - 1) * n + col] ^= 1
    return rec


def _split(word, n):
    """The blocks of length n of ``word``."""
    return [tuple(word[i : i + n]) for i in range(0, len(word), n)]


# ---------------------------------------------------------------------------
# channels


def test_bsc_p0_identity():
    cw = tuple(range(0, 2)) * 6
    out = transmit(cw, Bsc(0.0), rng_for(1, 0, 0), GF2)
    assert out == cw


def test_bsc_p1_complement():
    cw = (0, 1, 1, 0, 1)
    out = transmit(cw, Bsc(1.0), rng_for(1, 0, 0), GF2)
    assert out == (1, 0, 0, 1, 0)


def test_bsc_determinism_frozen():
    out = transmit((0,) * 23, Bsc(0.1), rng_for(123, 0, 0), GF2)
    assert tuple(i for i, x in enumerate(out) if x) == ()


def test_bsc_nonbinary_replaces_with_different_symbol():
    gf3 = field_create(3)
    out = transmit((0,) * 11, Bsc(0.3), rng_for(9, 1, 2), gf3)
    assert out == (1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0)
    heavy = transmit((1,) * 200, Bsc(1.0), rng_for(5, 0, 0), gf3)
    assert all(x != 1 for x in heavy)


def test_awgn_induced_crossover():
    ch = AwgnBpskHard(-5.0)
    assert ch.crossover == pytest.approx(0.2132, abs=1e-4)
    assert 0 < AwgnBpskHard(10.0).crossover < ch.crossover <= 0.5


def test_bsc_validates_probability():
    with pytest.raises(ValueError):
        Bsc(1.5)


# ---------------------------------------------------------------------------
# verifiers


def test_genie_verifier():
    v = GenieVerifier((1, 0, 1))
    assert v.accepts((1, 0, 1))
    assert not v.accepts((1, 0, 0))


def test_crc_attach_and_accept():
    crc = CrcVerifier(Poly.parse(GF2, "x^4+x+1"))
    payload = (1, 0, 1, 1, 0, 1, 0, 1)
    msg = crc.attach(payload)
    assert len(msg) == len(payload) + 4
    assert crc.accepts(msg)
    wrong = list(msg)
    wrong[0] ^= 1
    assert not crc.accepts(wrong)


def test_crc_false_accept_possible():
    crc = CrcVerifier(Poly.parse(GF2, "x+1"))  # parity only: weak by design
    msg = crc.attach((1, 1, 0))
    other = list(msg)
    other[0] ^= 1
    other[1] ^= 1
    assert crc.accepts(other)  # two flips keep the parity


@pytest.mark.parametrize("field, g", [
    (GF2, "x^4+x+1"),
    (field_create(3), "2x^2+x+1"),  # non-monic
    (GF4, "2x^2+x+1"),
    (field_create(2, 3), "x^3+5x+3"),
    (GF9, "5x^2+x+7"),  # the first extension of an odd prime
])
def test_crc_digit_map_matches_verifier(field, g):
    # the simulator's CRC, one product on base-p digits, against the scalar
    # CrcVerifier: check symbols of random payloads, and the accept test on
    # their messages with and without one corrupted symbol
    verifier, k = CrcVerifier(Poly.parse(field, g)), 9
    rems = decoding._crc_remainders(verifier.generator, k)
    assert rems.shape == (k * field.e, verifier.ncheck * field.e)
    rng = np.random.default_rng(field.q)
    payloads = rng.integers(0, field.q, size=(60, k - verifier.ncheck))
    sent = decoding._crc_attach(field.p, rems, kernels.message_index(field.q, payloads))
    messages = [verifier.attach(tuple(pl.tolist())) for pl in payloads]
    assert [decoding._message(field.q, i, k) for i in sent] == messages
    for i, msg in enumerate(messages[1::2]):
        msg = list(msg)
        msg[i % k] = field.add(msg[i % k], 1 + i % (field.q - 1))
        messages.append(tuple(msg))
    want = [verifier.accepts(msg) for msg in messages]
    index = kernels.message_index(field.q, np.array(messages))
    assert decoding._crc_accepts(field.p, rems, index).tolist() == want
    assert not all(want)


# ---------------------------------------------------------------------------
# md_decode


def test_decode_codeword_is_itself(golay):
    cw = golay.encode(MSG)
    res = md_decode(golay, cw)
    assert res.message == MSG and res.distance == 0
    assert res.codeword == cw


def test_decode_golay_three_flips(golay):
    cw = list(golay.encode(MSG))
    for p in (2, 9, 17):
        cw[p] ^= 1
    res = md_decode(golay, cw)
    assert res.message == MSG and res.distance == 3


def test_decode_pair_subblock_five_columns(grc1):
    # sbdh_2 = 11 corrects 5 column errors on any two rows
    cw = grc1.full_code().encode(MSG)
    cols = [2, 5, 9, 13, 20]
    rec = _corrupt(cw, [(1, c) for c in cols] + [(2, c) for c in cols])
    got = grc1.decoder.candidate_message(rec, Candidate(2, (1, 2), "block"))
    assert got == MSG


def test_decode_block_metric_function(golay_shift4):
    full = golay_shift4.full_code()
    cw = full.encode(MSG)
    rec = _corrupt(cw, [(1, 0), (3, 0), (1, 7), (4, 7)])
    res = md_decode(full, rec, Block(4))
    assert res.message == MSG
    assert res.distance == 2  # two corrupted columns


# ---------------------------------------------------------------------------
# chase combining


def test_chase_identical_blocks(grc1):
    blocks = _split(grc1.full_code().encode(MSG), 23)
    combined = chase_combine(blocks, grc1.variant.perms, field=GF2)
    assert combined == blocks[0]


def test_chase_one_block_fully_corrupted(grc1):
    blocks = _split(grc1.full_code().encode(MSG), 23)
    bad = tuple(1 ^ b for b in blocks[2])
    combined = chase_combine(
        [blocks[0], blocks[1], bad, blocks[3]], grc1.variant.perms, field=GF2
    )
    assert combined == blocks[0]


def test_chase_odd_m_majority():
    perms = [Permutation.identity(4)] * 2
    blocks = [(1, 0, 0, 1), (1, 1, 0, 1), (0, 0, 0, 1)]
    combined = chase_combine(blocks, perms, field=GF2)
    assert combined == (1, 0, 0, 1)


def test_chase_tie_policies():
    perms = [Permutation.identity(3)] * 3
    blocks = [(1, 0, 0), (1, 0, 0), (0, 1, 0), (0, 1, 0)]
    assert chase_combine(blocks, perms, field=GF2) == (1, 0, 0)


def test_chase_needs_matching_perm_count():
    with pytest.raises(ValueError):
        chase_combine([(1, 0)], [Permutation.identity(2)], field=GF2)


def test_chase_rejects_malformed_blocks():
    with pytest.raises(ValueError, match="permutation size"):
        chase_combine([(1, 0), (0, 1)], [Permutation.identity(3)], field=GF2)
    with pytest.raises(ValueError, match="out of range"):
        chase_combine([(1, 0), (0, 2)], [Permutation.identity(2)], field=GF2)


# ---------------------------------------------------------------------------
# multi-round decoding


def test_noiseless_depth1(grc1):
    cw = grc1.full_code().encode(MSG)
    res = multi_round_decode(grc1, cw, 1, GenieVerifier(MSG))
    assert res.message == MSG
    assert res.rounds_used == 1 and res.subsets_tried == 1


def test_eleven_bits_three_rows_depth3(grc2):
    # 11 bit errors over rows {1,2,3} are inside the depth-3 guarantee
    cw = grc2.full_code().encode(MSG)
    hits = [(1, c) for c in (0, 5, 9, 14)] + [(2, c) for c in (1, 6, 11, 16)] + [
        (3, c) for c in (2, 7, 12)
    ]
    rec = _corrupt(cw, hits)
    res = multi_round_decode(grc2, rec, 3, GenieVerifier(MSG))
    assert res.message == MSG
    # the triple decode alone also recovers (11 <= (24-1)/2)
    got = grc2.decoder.candidate_message(rec, Candidate(3, (1, 2, 3), "hamming"))
    assert got == MSG


def test_seventeen_bits_depth4_guarantee(grc2):
    # 17 bits across all four rows sit exactly at the depth-4 radius
    cw = grc2.full_code().encode(MSG)
    hits = (
        [(1, c) for c in (0, 3, 5, 7)]
        + [(2, c) for c in (1, 5, 10, 14)]
        + [(3, c) for c in (4, 8, 9, 12)]
        + [(4, c) for c in (0, 5, 11, 14, 20)]
    )
    assert len(hits) == 17
    rec = _corrupt(cw, hits)
    res = multi_round_decode(grc2, rec, 4, GenieVerifier(MSG))
    assert res.message == MSG
    got = grc2.decoder.candidate_message(rec, Candidate(4, (1, 2, 3, 4), "hamming"))
    assert got == MSG


def test_depth_separation_witness(grc2):
    # frozen 24-bit pattern: every depth-3 candidate fails, depth 4 recovers
    rows = [
        (1, (0, 3, 5, 7, 11, 17)),
        (2, (1, 5, 10, 14, 21, 22)),
        (3, (4, 8, 9, 12, 14, 16)),
        (4, (0, 5, 6, 11, 14, 20)),
    ]
    hits = [(r, c) for r, cols in rows for c in cols]
    rec = _corrupt(grc2.full_code().encode(MSG), hits)
    v = GenieVerifier(MSG)
    r3 = multi_round_decode(grc2, rec, 3, v)
    assert r3.message is None
    r4 = multi_round_decode(grc2, rec, 4, v)
    assert r4.message == MSG


def test_candidate_order_type2(grc2):
    cands = list(iter_candidates(grc2, 2))
    assert cands[:4] == [
        Candidate(1, (1,), "hamming"),
        Candidate(1, (2,), "hamming"),
        Candidate(1, (3,), "hamming"),
        Candidate(1, (4,), "hamming"),
    ]
    assert cands[4] == Candidate(2, (1, 2), "hamming")
    assert cands[5] == Candidate(2, (1, 2), "block")
    assert all(c.kind != "chase" for c in cands)


def test_candidate_order_type1(grc1):
    cands = list(iter_candidates(grc1, 4))
    assert cands[-1] == Candidate(4, (1, 2, 3, 4), "chase")
    assert Candidate(2, (1, 2), "block") in cands
    assert Candidate(2, (1, 2), "hamming") not in cands
    # chase can be disabled
    no_chase = list(iter_candidates(grc1, 4, combining=False))
    assert all(c.kind != "chase" for c in no_chase)


def test_wrapped_shift_code_decodes_as_type1():
    """golay_type1_shift(13)'s last block x^12 g wraps mod x^23 - 1, and the
    code is still Type-I: its ladder ends with Chase, the repetition scheme
    runs on it, and its bound suite checks the Type-I bounds."""
    grc = presets.golay_type1_shift(13)
    assert list(iter_candidates(grc, 13))[-1] == Candidate(13, tuple(range(1, 14)), "chase")
    res = fer_simulate(SimConfig(grc, Bsc(0.3), frames=40, seed=11, max_depth=13,
                                 scheme="repetition"))
    errors = [d.frame_errors for d in res.per_depth]
    assert errors == sorted(errors, reverse=True) and errors[0] > 0
    verdicts = {}
    for rep in bound_suite(grc, distance_profile(grc)):
        verdicts.setdefault(rep.name, set()).add(rep.verdict)
    assert verdicts["type1-upper"] == verdicts["cyclic-kappa-lower"] == {"not-applicable"}
    assert "qc-type2-lower" not in verdicts


def test_candidate_schemes(grc1):
    ir = list(iter_candidates(grc1, 3, scheme="ir"))
    assert ir == [
        Candidate(1, (1,), "hamming"),
        Candidate(2, (1, 2), "hamming"),
        Candidate(3, (1, 2, 3), "hamming"),
    ]
    bs = list(iter_candidates(grc1, 4, scheme="bsymbol"))
    assert bs[:4] == [Candidate(1, (i,), "hamming") for i in (1, 2, 3, 4)]
    assert Candidate(4, (1, 2, 3, 4), "block") in bs
    assert len(bs) == 6  # 4 singles + full block + chase


# ---------------------------------------------------------------------------
# the nine deterministic correctable-pattern classes (shared scenarios)

from pattern_classes import TYPE1_CLASSES, TYPE2_CLASSES, chase_frame


@pytest.mark.parametrize("scenario", TYPE1_CLASSES, ids=lambda f: f.__name__)
def test_type1_pattern_classes(grc1, scenario):
    assert scenario(grc1)


@pytest.mark.parametrize("scenario", TYPE2_CLASSES, ids=lambda f: f.__name__)
def test_type2_pattern_classes(grc2, scenario):
    assert scenario(grc2)


# ---------------------------------------------------------------------------
# Chase candidates decode in block 1 of the full code's table


@pytest.fixture(scope="module")
def grc_shifted():
    """QC Type-I code whose block 1 is generated by x g, not by the base g."""
    g = Poly.parse(GF2, presets.GOLAY_GEN)
    gens = [Poly.monomial(GF2, t) * g for t in (1, 2, 3, 4)]
    return from_qc_generators(23, gens)


def test_chase_message_on_shifted_qc_code(grc_shifted):
    chase = Candidate(4, (1, 2, 3, 4), "chase")
    cw = grc_shifted.full_code().encode(MSG)
    assert grc_shifted.decoder.candidate_message(cw, chase) == MSG
    # pattern class 5: the vote leaves three wrong columns, within radius 3
    rec = [x for z in chase_frame(grc_shifted) for x in z]
    assert grc_shifted.decoder.candidate_message(rec, chase) == MSG
    res = multi_round_decode(grc_shifted, rec, 4, GenieVerifier(MSG))
    assert res.message == MSG


def test_chase_candidate_accepts_inside_the_ladder(grc1):
    """Five errors per block, on aligned columns disjoint across the blocks:
    every Hamming and block candidate of the ladder fails, and the vote of
    the aligned copies removes every error.  The columns come from a seeded
    search over random disjoint choices (3 such frames in 3,000)."""
    groups = [(6, 10, 11, 12, 19), (0, 1, 3, 8, 9), (16, 18, 20, 21, 22), (2, 5, 7, 13, 14)]
    base = grc1.full_code().encode(MSG)[:23]
    rec = []
    for b, cols in enumerate(groups):
        z = tuple(x ^ (j in cols) for j, x in enumerate(base))
        rec += z if b == 0 else grc1.variant.perms[b - 1].apply(z)
    res = multi_round_decode(grc1, rec, 4, GenieVerifier(MSG))
    assert res.accepted_by == Candidate(4, (1, 2, 3, 4), "chase")
    assert res.message == MSG


# ---------------------------------------------------------------------------
# q-ary decoding against a brute-force nearest-codeword oracle


def _qary_codes():
    yield type1_regular(presets.ternary_golay(), Permutation.cyclic_shift(11), 3)
    yield type1_regular(LinearCode.from_rows(GF4, HEXACODE), Permutation.cyclic_shift(6), 3)


def _oracle(codewords, n, received, blocks, metric):
    """(message index, distance) of the first nearest codeword on ``blocks``
    (0-based) of ``received``, which holds whole blocks of length n."""
    best = None
    for index, cw in enumerate(codewords):
        cols = [
            [cw[b * n + j] != received[b * n + j] for b in blocks] for j in range(n)
        ]
        dist = sum(map(sum, cols)) if metric == "hamming" else sum(map(any, cols))
        if best is None or dist < best[1]:
            best = (index, dist)
    return best


@pytest.mark.parametrize("grc", _qary_codes(), ids=lambda g: f"gf{g.field.q}")
def test_qary_decoding_matches_oracle(grc):
    q, k, m, n = grc.field.q, grc.dim, grc.m, grc.n
    dec, full = GrcDecoder(grc), grc.full_code()
    messages = [tuple(i // q**j % q for j in range(k)) for i in range(q**k)]
    codewords = [full.encode(msg) for msg in messages]
    rng = random.Random(q)
    words = [[rng.randrange(q) for _ in range(m * n)] for _ in range(4)]
    for _ in range(4):  # codewords with a few symbol errors
        word = list(rng.choice(codewords))
        for pos in rng.sample(range(m * n), 2 * m):
            word[pos] = (word[pos] + rng.randrange(1, q)) % q
        words.append(word)
    for rec in words:
        for metric, nb, blocks, kind in (
            (Block(1), m * n, [0], "hamming"),
            (Block(m), n, range(m), "block"),
        ):
            res = md_decode(full, rec, metric)
            index, dist = _oracle(codewords, nb, rec, blocks, kind)
            assert (res.message, res.codeword, res.distance) == (
                messages[index], codewords[index], dist
            )
        # the repetition scheme adds Chase candidates on prefixes shorter than m
        for cand in [*iter_candidates(grc, m), *iter_candidates(grc, m, scheme="repetition")]:
            got = dec.candidate_message(rec, cand)
            if cand.kind == "chase":
                r = len(cand.blocks)
                combined = chase_combine(
                    _split(rec, n)[:r], grc.variant.perms[: r - 1], field=grc.field
                )
                index, _ = _oracle(codewords, n, combined, [0], "hamming")
            else:
                index, _ = _oracle(codewords, n, rec, [b - 1 for b in cand.blocks], cand.kind)
            assert got == messages[index], cand


# ---------------------------------------------------------------------------
# randomized radius property (smoke; the full 10k-trial run is in acceptance)


def test_radius_property_smoke(grc2):
    rng = random.Random(17)
    full = grc2.full_code()
    prof_table = {(1, 2): (12, 14), (1, 2, 3): (16, 24)}
    for _ in range(100):
        t = rng.choice(list(prof_table))
        d_block, d_ham = prof_table[t]
        msg = tuple(rng.randrange(2) for _ in range(12))
        cw = full.encode(msg)
        if rng.random() < 0.5:
            radius = (d_ham - 1) // 2
            positions = rng.sample([(r, c) for r in t for c in range(23)], radius)
            rec = _corrupt(cw, positions)
            got = grc2.decoder.candidate_message(rec, Candidate(len(t), t, "hamming"))
        else:
            radius = (d_block - 1) // 2
            cols = rng.sample(range(23), radius)
            positions = []
            for c in cols:
                rows = rng.sample(t, rng.randrange(1, len(t) + 1))
                positions.extend((r, c) for r in rows)
            rec = _corrupt(cw, positions)
            got = grc2.decoder.candidate_message(rec, Candidate(len(t), t, "block"))
        assert got == msg


# ---------------------------------------------------------------------------
# FER simulation


def test_fer_zero_noise(grc1):
    cfg = SimConfig(grc1, Bsc(0.0), frames=20, seed=1, max_depth=4)
    res = fer_simulate(cfg)
    assert all(s.fer == 0.0 for s in res.per_depth)


def test_fer_half_noise_is_bad(grc1):
    cfg = SimConfig(grc1, Bsc(0.5), frames=60, seed=2, max_depth=4)
    res = fer_simulate(cfg)
    assert res.per_depth[-1].fer > 0.5


def test_fer_depth_monotone_and_reproducible(grc2):
    cfg = SimConfig(grc2, AwgnBpskHard(-5.0), frames=120, seed=11, max_depth=4)
    res = fer_simulate(cfg)
    fers = [s.fer for s in res.per_depth]
    assert all(a >= b for a, b in zip(fers, fers[1:]))
    assert fer_simulate(cfg) == res


def test_fer_threads_match_serial(grc2):
    base = SimConfig(grc2, Bsc(0.2), frames=60, seed=5, max_depth=3)
    threaded = SimConfig(grc2, Bsc(0.2), frames=60, seed=5, max_depth=3, threads=2)
    assert fer_simulate(base).per_depth == fer_simulate(threaded).per_depth


def test_fer_threads_stress_match_serial(grc1):
    # more threads than cores, small batches and frequent switches: the
    # threads share the decoder's table and write nothing shared
    cfg = SimConfig(grc1, Bsc(0.2), frames=120, seed=21, max_depth=4)
    want = fer_simulate(cfg).per_depth
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(fer_simulate, replace(cfg, threads=6)) for _ in range(2)]
            got = [run.result(timeout=120).per_depth for run in runs]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want, want]


def test_code_keeps_one_decoder(monkeypatch):
    # blocks 1, 2 and 4 share a generator, block 3 has its own
    tables, leaders = [], []

    def count_tables(*args, **kwargs):
        tables.append(args)
        return build_table(*args, **kwargs)

    def count_leaders(field, block):
        leaders.append(block.tobytes())
        return coset_leaders(field, block)

    build_table, coset_leaders = kernels.build_table, kernels.coset_leaders
    monkeypatch.setattr(kernels, "build_table", count_tables)
    monkeypatch.setattr(kernels, "coset_leaders", count_leaders)
    ident, shift = Permutation.identity(23), Permutation.cyclic_shift(23)
    grc = type1(presets.binary_golay(), [ident, shift, ident])
    twin = type1(presets.binary_golay(), [ident, shift, ident])
    before = (repr(grc), hash(grc), grc_to_text(grc))
    cfg = SimConfig(grc, Bsc(0.2), frames=100, seed=4, max_depth=4)
    assert fer_simulate(cfg) == fer_simulate(cfg)
    fer_simulate(replace(cfg, seed=5, threads=2))
    assert len(tables) == 1
    blocks = {grc.gen.data[:, b * 23 : (b + 1) * 23].tobytes() for b in range(4)}
    assert len(blocks) == 2 and sorted(leaders) == sorted(blocks)
    assert (repr(grc), hash(grc), grc_to_text(grc)) == before and grc == twin
    # the decoder keeps no reference to its code, so the code and its tables
    # are freed at its last reference, without the cyclic collector
    ref = weakref.ref(grc)
    gc.disable()
    try:
        del grc, cfg
        assert ref() is None
    finally:
        gc.enable()


def test_concurrent_first_uses_build_one_decoder(monkeypatch):
    # more threads than cores ask a fresh code for its decoder at once
    tables = []

    def count_tables(*args, **kwargs):
        tables.append(args)
        return build_table(*args, **kwargs)

    build_table = kernels.build_table
    monkeypatch.setattr(kernels, "build_table", count_tables)
    grc = presets.golay_type2_mixed()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            runs = [pool.submit(lambda: (id(grc.decoder), id(grc.decoder.table)))
                    for _ in range(6)]
            got = {run.result(timeout=60) for run in runs}
    finally:
        sys.setswitchinterval(interval)
    assert got == {(id(grc.decoder), id(grc.decoder.table))} and len(tables) == 1


def _count_builds(monkeypatch) -> dict[str, int]:
    """Count the calls of each kernel that builds a decoder's state."""
    counts = dict.fromkeys(("build_table", "coset_leaders", "info_sets"), 0)
    for name in counts:
        def counting(*args, _name=name, _build=getattr(kernels, name), **kwargs):
            counts[_name] += 1
            return _build(*args, **kwargs)

        monkeypatch.setattr(kernels, name, counting)
    return counts


def test_new_decoder_builds_nothing(monkeypatch):
    counts = _count_builds(monkeypatch)
    for grc in (presets.golay_type1_shift(4), presets.golay_type2_mixed()):
        GrcDecoder(grc)
        grc.decoder
    assert counts == {"build_table": 0, "coset_leaders": 0, "info_sets": 0}


def test_noiseless_frame_builds_leader_tables_only(monkeypatch):
    grc = presets.golay_type1_shift(4)
    counts = _count_builds(monkeypatch)
    res = multi_round_decode(grc, grc.full_code().encode(MSG), 4, GenieVerifier(MSG),
                             decoder=GrcDecoder(grc))
    assert res.message == MSG and res.rounds_used == 1
    assert counts == {"build_table": 0, "coset_leaders": 1, "info_sets": 0}


@pytest.fixture(scope="module")
def above_cap():
    """A [62, 30] Type-I code, k above the enumeration cap: no codeword table."""
    base = LinearCode.cyclic(GF2, 31, Poly.parse(GF2, "x+1"))
    grc = type1_regular(base, Permutation.cyclic_shift(31), 2)
    assert grc.dim > kernels.DEFAULT_CAP
    return grc


@pytest.mark.parametrize("depth", [1, 2])
def test_code_above_the_cap_decodes_in_round_one(above_cap, depth):
    message = tuple((7 * j + 3) % 2 for j in range(above_cap.dim))
    received = above_cap.full_code().encode(message)
    res = multi_round_decode(above_cap, received, depth, GenieVerifier(message),
                             decoder=GrcDecoder(above_cap))
    assert res.message == message and res.rounds_used == 1
    assert res.accepted_by == Candidate(1, (1,), "hamming")


def test_code_above_the_cap_needs_a_table_past_round_one(above_cap):
    # Two errors in each block: each block reads as another codeword, so
    # round 1 fails, and the (1, 2) block candidate decodes on information
    # sets with no table.
    message = tuple((7 * j + 3) % 2 for j in range(above_cap.dim))
    received = list(above_cap.full_code().encode(message))
    for j in (0, 5, 31, 40):
        received[j] ^= 1
    res = multi_round_decode(above_cap, received, 2, GenieVerifier(message),
                             decoder=GrcDecoder(above_cap))
    assert res.message == message and res.rounds_used == 2
    assert res.accepted_by == Candidate(2, (1, 2), "block")
    # the simulator still encodes by gathering from the table
    with pytest.raises(kernels.DimensionCapError):
        fer_simulate(SimConfig(above_cap, Bsc(0.0), frames=1, seed=1, max_depth=1))


_SERIAL_CASES = {
    # binary Type-I, genie verification
    "golay-genie": lambda: SimConfig(presets.golay_type1_shift(4), Bsc(0.2), frames=40, seed=13,
                                     max_depth=4),
    # GF(3) Type-I under the repetition scheme: q-ary Chase votes, with ties
    "gf3-repetition": lambda: SimConfig(
        type1_regular(presets.ternary_golay(), Permutation.cyclic_shift(11), 3), Bsc(0.25),
        frames=60, seed=8, max_depth=3, scheme="repetition"),
    # CRC verification with false accepts
    "golay-crc": lambda: SimConfig(presets.golay_type1_shift(4), Bsc(0.4), frames=150, seed=3,
                                   max_depth=2, crc=Poly.parse(GF2, "x^3+x+1")),
    # the CRC's linear map over a prime field, with a non-monic generator
    "gf3-crc": lambda: SimConfig(
        type1_regular(presets.ternary_golay(), Permutation.cyclic_shift(11), 3), Bsc(0.3),
        frames=120, seed=8, max_depth=3, crc=Poly.parse(field_create(3), "2x^2+x+1")),
    # ... and over an extension field, where sums and products are not mod q
    "gf4-crc": lambda: SimConfig(
        type1_regular(LinearCode.from_rows(GF4, HEXACODE), Permutation.cyclic_shift(6), 3),
        Bsc(0.3), frames=100, seed=4, max_depth=3, crc=Poly.parse(GF4, "2x^2+x+1")),
    # ... and over an extension of an odd prime: an [8, 5] Reed-Solomon code over GF(9)
    "gf9-crc": lambda: SimConfig(
        type1_regular(LinearCode.cyclic(GF9, 8, Poly.parse(GF9, "x^3+3x^2+2x+6")),
                      Permutation.cyclic_shift(8), 3),
        Bsc(0.4), frames=150, seed=5, max_depth=3, crc=Poly.parse(GF9, "5x^2+x+7")),
}

# fer_simulate's rows for the gf9-crc case, pinned when the CRC was computed
# in the field's scalar arithmetic
GF9_CRC_ROWS = [
    "code,bsc,0.4,1,150,106,0.706667,5,5",
    "code,bsc,0.4,2,150,69,0.460000,5,5",
    "code,bsc,0.4,3,150,61,0.406667,9,5",
]


def test_gf9_crc_rows():
    assert fer_simulate(_SERIAL_CASES["gf9-crc"]()).csv_rows() == GF9_CRC_ROWS


def test_fer_matches_serial_multiround():
    for case in _SERIAL_CASES:
        _check_frames_match_serial(case)


def _check_frames_match_serial(case):
    # every frame of the batched simulator must match the one-frame
    # definitions: rng_for streams, transmit, encode and multi_round_decode
    cfg = _SERIAL_CASES[case]()
    grc = cfg.grc
    field, m, n, k = grc.field, grc.m, grc.n, grc.dim
    dec, full = GrcDecoder(grc), grc.full_code()
    rems = None if cfg.crc is None else decoding._crc_remainders(cfg.crc, k)
    rounds, index, sent = decoding._simulate_batch(cfg, dec, rems, range(cfg.frames))
    kinds = set()
    want_errors = [0] * cfg.max_depth
    for f in range(cfg.frames):
        msg_rng = rng_for(cfg.seed, f, m)
        if cfg.crc is None:
            msg = tuple(int(x) for x in msg_rng.integers(0, field.q, size=k))
            verifier = GenieVerifier(msg)
        else:
            verifier = CrcVerifier(cfg.crc)
            payload = msg_rng.integers(0, field.q, size=k - verifier.ncheck)
            msg = verifier.attach(tuple(int(x) for x in payload))
        cw = full.encode(msg)
        rec = []
        for b in range(m):
            block = cw[b * n : (b + 1) * n]
            rec.extend(transmit(block, cfg.channel, rng_for(cfg.seed, f, b), field))
        out = multi_round_decode(grc, rec, cfg.max_depth, verifier, decoder=dec, scheme=cfg.scheme)
        assert decoding._message(field.q, sent[f], k) == msg, (case, f)
        if out.message is None:
            assert (rounds[f], index[f]) == (m + 1, -1), (case, f)
        else:
            got = (rounds[f], decoding._message(field.q, index[f], k))
            assert got == (out.rounds_used, out.message), (case, f)
            kinds.add((out.accepted_by.kind, out.message == msg))
        for d in range(cfg.max_depth):
            want_errors[d] += not (out.message == msg and out.rounds_used <= d + 1)
    assert [s.frame_errors for s in fer_simulate(cfg).per_depth] == want_errors
    if case == "gf3-repetition":
        assert ("chase", True) in kinds
    if cfg.crc is not None:
        assert any(not correct for _, correct in kinds)


def test_fer_crc_counts_false_accepts(grc1):
    crc = Poly.parse(GF2, "x^3+x+1")
    cfg = SimConfig(grc1, Bsc(0.4), frames=150, seed=3, max_depth=2, crc=crc)
    res = fer_simulate(cfg)
    assert any(s.false_accepts > 0 for s in res.per_depth)
    assert all(s.false_accepts <= s.frame_errors for s in res.per_depth)


def test_sim_config_validation(grc1):
    with pytest.raises(ValueError):
        SimConfig(grc1, Bsc(0.1), frames=0, seed=1, max_depth=4)
    with pytest.raises(ValueError):
        SimConfig(grc1, Bsc(0.1), frames=5, seed=1, max_depth=9)
    # a CRC of degree >= k leaves no payload bits
    with pytest.raises(ValueError, match="CRC"):
        SimConfig(grc1, Bsc(0.1), frames=5, seed=1, max_depth=4,
                  crc=Poly.parse(GF2, "x^13+x+1"))
    with pytest.raises(ValueError, match="seed"):
        SimConfig(grc1, Bsc(0.1), frames=5, seed=-1, max_depth=4)
    with pytest.raises(ValueError, match="scheme"):
        SimConfig(grc1, Bsc(0.1), frames=5, seed=1, max_depth=4, scheme="harq")
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            SimConfig(grc1, Bsc(0.1), frames=5, seed=1, max_depth=4, threads=threads)


def test_sim_config_refuses_a_crc_over_another_field(grc1):
    """The CRC's remainders are computed in its own field and read in the
    code's: a CRC over GF(3) or GF(4) on a binary code is an error, not a
    run whose checks are silently reduced mod 2."""
    for crc in (Poly.parse(field_create(3), "x^3+2x+1"), Poly.parse(GF4, "x^3+x+1")):
        with pytest.raises(ValueError, match="field"):
            SimConfig(grc1, Bsc(0.05), frames=200, seed=1, max_depth=4, crc=crc)


@pytest.mark.parametrize("seed", [0, 3, 2**32 + 5, 2**70 + 1, 2**100 + 3, 2**130 + 7])
def test_keyed_streams_match_rng_for(seed):
    # seeds of one to five uint32 words (four fill SeedSequence's pool and
    # five overflow it, so neither is padded), frames of one and two words,
    # blocks 0..m-1 and the message stream m for m = 4, odd and even lengths
    frames, m = [0, 1, 2**32 - 1, 2**32], 4
    for q, n, k in ((2, 7, 12), (3, 6, 7), (4, 5, 6), (7, 4, 5)):
        uniform, shift, message = decoding._frame_draws(seed, frames, m, n, q, k)
        assert (shift is None) == (q == 2)
        for i, f in enumerate(frames):
            for b in range(m):
                rng = rng_for(seed, f, b)
                assert uniform[i, b].tolist() == rng.random(n).tolist(), (q, f, b)
                if shift is not None:
                    assert shift[i, b].tolist() == rng.integers(1, q, size=n).tolist(), (q, f, b)
            want = rng_for(seed, f, m).integers(0, q, size=k)
            assert message[i].tolist() == want.tolist(), (q, f)


# Random123's Philox4x32-10 known answers: (counter, key) -> output
PHILOX_KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
]


@pytest.mark.parametrize("counter, key, want", PHILOX_KAT, ids=["zeros", "ones", "pi"])
def test_philox_known_answers(counter, key, want):
    got = decoding._philox(key, [np.array([c], dtype=np.uint32) for c in counter])
    assert tuple(int(x[0]) for x in got) == want


def _philox_words(key, stream, frame, count):
    """The first ``count`` 64-bit words of a stream, from Philox4x32-10
    written out on Python ints: word j is half j % 2 of the block at counter
    (j // 2, stream, frame mod 2^32, frame // 2^32), low 32 bits first."""
    mask, words = 2**32 - 1, []
    for j in range((count + 1) // 2):
        c, (k0, k1) = [j, stream, frame & mask, frame >> 32], key
        for _ in range(10):
            p0, p1 = c[0] * 0xD2511F53, c[2] * 0xCD9E8D57
            c = [(p1 >> 32) ^ c[1] ^ k0, p1 & mask, (p0 >> 32) ^ c[3] ^ k1, p0 & mask]
            k0, k1 = (k0 + 0x9E3779B9) & mask, (k1 + 0xBB67AE85) & mask
        words += [c[1] << 32 | c[0], c[3] << 32 | c[2]]
    return words[:count]


@pytest.mark.parametrize("seed, frame, stream",
                         [(0, 0, 0), (123, 2**32 + 5, 3), (2**64 - 1, 2**64 - 1, 2**32 - 1)])
def test_stream_draws_follow_the_counter_layout(seed, frame, stream):
    # a seed below 2^64 is its own key, split low word first
    key = (seed & (2**32 - 1), seed >> 32)
    words = _philox_words(key, stream, frame, 12)
    rng = rng_for(seed, frame, stream)
    assert rng.random(5).tolist() == [(w >> 11) * 2.0**-53 for w in words[:5]]
    assert rng.integers(1, 7, size=7).tolist() == [1 + (w * 6 >> 64) for w in words[5:]]


def test_bounded_draw_is_the_high_word_of_the_product():
    words = [0, 2**64 - 1] + _philox_words((5, 0), 1, 9, 40)
    hi = np.array([w >> 32 for w in words], dtype=np.uint32)
    lo = np.array([w & (2**32 - 1) for w in words], dtype=np.uint32)
    for r in (2, 3, 4056, 2**31 - 1, 2**32 - 1):
        assert decoding._below(hi, lo, r).tolist() == [w * r >> 64 for w in words], r


def test_seeds_get_distinct_keys():
    seeds = [0, 1, 2**32, 2**64, 2**64 + 1, 2**130 + 7]
    assert len({decoding._key(seed) for seed in seeds}) == len(seeds)


def test_stream_limits_raise():
    for seed, frame, stream in ((-1, 0, 0), (0, 2**64, 0), (0, -1, 0), (0, 0, 2**32), (0, 0, -1)):
        with pytest.raises(ValueError):
            rng_for(seed, frame, stream)
    with pytest.raises(ValueError):
        decoding._frame_draws(-1, [0], 2, 7, 2, 4)


def test_type2_grc_decoding_11_4(gf2):
    base = LinearCode.from_rows(
        GF2,
        [
            [1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1],
            [0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1],
            [0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1],
            [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
        ],
    )
    grc = type2(base, companion_matrix(Poly.parse(GF2, "x^4+x+1")), 4)
    msg = (1, 0, 1, 1)
    cw = grc.full_code().encode(msg)
    # block radius of the full set: (11 - 1) // 2 = 5 column errors
    rec = list(cw)
    for c in (0, 2, 5, 7, 9):
        for r in range(4):
            rec[r * 11 + c] ^= 1
    got = grc.decoder.candidate_message(rec, Candidate(4, (1, 2, 3, 4), "block"))
    assert got == msg
