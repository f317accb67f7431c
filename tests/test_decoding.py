import random

import pytest

from grclib.codes import Block, Hamming, LinearCode
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
from grclib.grc import from_qc_generators, type1_regular, type2
from grclib.perms import Permutation
from grclib.poly import Poly, companion_matrix
from grclib import presets

GF2 = field_create(2)

MSG = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0)


@pytest.fixture(scope="module")
def dec1():
    return GrcDecoder(presets.golay_type1_shift(4))


@pytest.fixture(scope="module")
def dec2():
    return GrcDecoder(presets.golay_type2_mixed())


def _corrupt(codeword, row_cols, n=23):
    """Flip (row, col) positions (1-based rows, 0-based cols)."""
    rec = list(codeword)
    for row, col in row_cols:
        rec[(row - 1) * n + col] ^= 1
    return rec


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
    assert tuple(i for i, x in enumerate(out) if x) == (3, 8, 21)


def test_bsc_nonbinary_replaces_with_different_symbol():
    gf3 = field_create(3)
    out = transmit((0,) * 11, Bsc(0.3), rng_for(9, 1, 2), gf3)
    assert out == (1, 0, 1, 1, 0, 0, 0, 0, 0, 2, 0)
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


def test_decode_pair_subblock_five_columns(dec1):
    # sbdh_2 = 11 corrects 5 column errors on any two rows
    cw = dec1.full_code.encode(MSG)
    cols = [2, 5, 9, 13, 20]
    rec = _corrupt(cw, [(1, c) for c in cols] + [(2, c) for c in cols])
    got = dec1.candidate_message(rec, Candidate(2, (1, 2), "block"))
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


def test_chase_identical_blocks(dec1):
    grc = dec1.grc
    cw = dec1.full_code.encode(MSG)
    blocks = dec1.split(cw)
    combined = chase_combine(blocks, grc.variant.perms, field=GF2)
    assert combined == blocks[0]


def test_chase_one_block_fully_corrupted(dec1):
    grc = dec1.grc
    blocks = dec1.split(dec1.full_code.encode(MSG))
    bad = tuple(1 ^ b for b in blocks[2])
    combined = chase_combine(
        [blocks[0], blocks[1], bad, blocks[3]], grc.variant.perms, field=GF2
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
    first = chase_combine(blocks, perms, field=GF2, tie_policy="first-block")
    assert first == (1, 0, 0)
    rng = rng_for(5, 0, 0)
    rnd = chase_combine(blocks, perms, field=GF2, tie_policy="random", rng=rng)
    assert all(x in (0, 1) for x in rnd)
    with pytest.raises(ValueError):
        chase_combine(blocks, perms, field=GF2, tie_policy="random")
    with pytest.raises(ValueError):
        chase_combine(blocks, perms, field=GF2, tie_policy="bogus")


def test_chase_needs_matching_perm_count():
    with pytest.raises(ValueError):
        chase_combine([(1, 0)], [Permutation.identity(2)], field=GF2)


# ---------------------------------------------------------------------------
# multi-round decoding


def test_noiseless_depth1(dec1):
    cw = dec1.full_code.encode(MSG)
    res = multi_round_decode(dec1.grc, cw, 1, GenieVerifier(MSG), decoder=dec1)
    assert res.message == MSG
    assert res.rounds_used == 1 and res.subsets_tried == 1


def test_eleven_bits_three_rows_depth3(dec2):
    # 11 bit errors over rows {1,2,3} are inside the depth-3 guarantee
    cw = dec2.full_code.encode(MSG)
    hits = [(1, c) for c in (0, 5, 9, 14)] + [(2, c) for c in (1, 6, 11, 16)] + [
        (3, c) for c in (2, 7, 12)
    ]
    rec = _corrupt(cw, hits)
    res = multi_round_decode(dec2.grc, rec, 3, GenieVerifier(MSG), decoder=dec2)
    assert res.message == MSG
    # the triple decode alone also recovers (11 <= (24-1)/2)
    got = dec2.candidate_message(rec, Candidate(3, (1, 2, 3), "hamming"))
    assert got == MSG


def test_seventeen_bits_depth4_guarantee(dec2):
    # 17 bits across all four rows sit exactly at the depth-4 radius
    cw = dec2.full_code.encode(MSG)
    hits = (
        [(1, c) for c in (0, 3, 5, 7)]
        + [(2, c) for c in (1, 5, 10, 14)]
        + [(3, c) for c in (4, 8, 9, 12)]
        + [(4, c) for c in (0, 5, 11, 14, 20)]
    )
    assert len(hits) == 17
    rec = _corrupt(cw, hits)
    res = multi_round_decode(dec2.grc, rec, 4, GenieVerifier(MSG), decoder=dec2)
    assert res.message == MSG
    got = dec2.candidate_message(rec, Candidate(4, (1, 2, 3, 4), "hamming"))
    assert got == MSG


def test_depth_separation_witness(dec2):
    # frozen 24-bit pattern: every depth-3 candidate fails, depth 4 recovers
    rows = [
        (1, (0, 3, 5, 7, 11, 17)),
        (2, (1, 5, 10, 14, 21, 22)),
        (3, (4, 8, 9, 12, 14, 16)),
        (4, (0, 5, 6, 11, 14, 20)),
    ]
    hits = [(r, c) for r, cols in rows for c in cols]
    rec = _corrupt(dec2.full_code.encode(MSG), hits)
    v = GenieVerifier(MSG)
    r3 = multi_round_decode(dec2.grc, rec, 3, v, decoder=dec2)
    assert r3.message is None
    r4 = multi_round_decode(dec2.grc, rec, 4, v, decoder=dec2)
    assert r4.message == MSG


def test_candidate_order_type2(dec2):
    cands = list(iter_candidates(dec2.grc, 2))
    assert cands[:4] == [
        Candidate(1, (1,), "hamming"),
        Candidate(1, (2,), "hamming"),
        Candidate(1, (3,), "hamming"),
        Candidate(1, (4,), "hamming"),
    ]
    assert cands[4] == Candidate(2, (1, 2), "hamming")
    assert cands[5] == Candidate(2, (1, 2), "block")
    assert all(c.kind != "chase" for c in cands)


def test_candidate_order_type1(dec1):
    cands = list(iter_candidates(dec1.grc, 4))
    assert cands[-1] == Candidate(4, (1, 2, 3, 4), "chase")
    assert Candidate(2, (1, 2), "block") in cands
    assert Candidate(2, (1, 2), "hamming") not in cands
    # chase can be disabled
    no_chase = list(iter_candidates(dec1.grc, 4, combining=False))
    assert all(c.kind != "chase" for c in no_chase)


def test_candidate_schemes(dec1):
    ir = list(iter_candidates(dec1.grc, 3, scheme="ir"))
    assert ir == [
        Candidate(1, (1,), "hamming"),
        Candidate(2, (1, 2), "hamming"),
        Candidate(3, (1, 2, 3), "hamming"),
    ]
    bs = list(iter_candidates(dec1.grc, 4, scheme="bsymbol"))
    assert bs[:4] == [Candidate(1, (i,), "hamming") for i in (1, 2, 3, 4)]
    assert Candidate(4, (1, 2, 3, 4), "block") in bs
    assert len(bs) == 6  # 4 singles + full block + chase


# ---------------------------------------------------------------------------
# the nine deterministic correctable-pattern classes (shared scenarios)

from pattern_classes import TYPE1_CLASSES, TYPE2_CLASSES, chase_frame


@pytest.mark.parametrize("scenario", TYPE1_CLASSES, ids=lambda f: f.__name__)
def test_type1_pattern_classes(dec1, scenario):
    assert scenario(dec1)


@pytest.mark.parametrize("scenario", TYPE2_CLASSES, ids=lambda f: f.__name__)
def test_type2_pattern_classes(dec2, scenario):
    assert scenario(dec2)


# ---------------------------------------------------------------------------
# Chase candidates decode in block 1 of the full code's table


@pytest.fixture(scope="module")
def dec_shifted():
    """QC Type-I code whose block 1 is generated by x g, not by the base g."""
    g = Poly.parse(GF2, presets.GOLAY_GEN)
    gens = [Poly.monomial(GF2, t) * g for t in (1, 2, 3, 4)]
    return GrcDecoder(from_qc_generators(23, gens))


def test_chase_message_on_shifted_qc_code(dec_shifted):
    chase = Candidate(4, (1, 2, 3, 4), "chase")
    cw = dec_shifted.full_code.encode(MSG)
    assert dec_shifted.candidate_message(cw, chase) == MSG
    # pattern class 5: the vote leaves three wrong columns, within radius 3
    rec = [x for z in chase_frame(dec_shifted) for x in z]
    assert dec_shifted.candidate_message(rec, chase) == MSG
    res = multi_round_decode(dec_shifted.grc, rec, 4, GenieVerifier(MSG), decoder=dec_shifted)
    assert res.message == MSG


def test_chase_candidate_accepts_inside_the_ladder(dec1):
    """Five errors per block, on aligned columns disjoint across the blocks:
    every Hamming and block candidate of the ladder fails, and the vote of
    the aligned copies removes every error.  The columns come from a seeded
    search over random disjoint choices (3 such frames in 3,000)."""
    groups = [(6, 10, 11, 12, 19), (0, 1, 3, 8, 9), (16, 18, 20, 21, 22), (2, 5, 7, 13, 14)]
    base = dec1.split(dec1.full_code.encode(MSG))[0]
    rec = []
    for b, cols in enumerate(groups):
        z = tuple(x ^ (j in cols) for j, x in enumerate(base))
        rec += z if b == 0 else dec1.grc.variant.perms[b - 1].apply(z)
    res = multi_round_decode(dec1.grc, rec, 4, GenieVerifier(MSG), decoder=dec1)
    assert res.accepted_by == Candidate(4, (1, 2, 3, 4), "chase")
    assert res.message == MSG


# ---------------------------------------------------------------------------
# q-ary decoding against a brute-force nearest-codeword oracle

GF4 = field_create(2, 2)
HEXACODE = [[1, 0, 0, 1, 2, 2], [0, 1, 0, 2, 1, 2], [0, 0, 1, 2, 2, 1]]  # 2 = alpha


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
    dec = GrcDecoder(grc)
    messages = [tuple(i // q**j % q for j in range(k)) for i in range(q**k)]
    codewords = [dec.full_code.encode(msg) for msg in messages]
    rng = random.Random(q)
    words = [[rng.randrange(q) for _ in range(m * n)] for _ in range(4)]
    for _ in range(4):  # codewords with a few symbol errors
        word = list(rng.choice(codewords))
        for pos in rng.sample(range(m * n), 2 * m):
            word[pos] = (word[pos] + rng.randrange(1, q)) % q
        words.append(word)
    for rec in words:
        for metric, nb, blocks, kind in (
            (Hamming(), m * n, [0], "hamming"),
            (Block(m), n, range(m), "block"),
        ):
            res = md_decode(dec.full_code, rec, metric)
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
                    dec.split(rec)[:r], grc.variant.perms[: r - 1], field=grc.field
                )
                index, _ = _oracle(codewords, n, combined, [0], "hamming")
            else:
                index, _ = _oracle(codewords, n, rec, [b - 1 for b in cand.blocks], cand.kind)
            assert got == messages[index], cand


# ---------------------------------------------------------------------------
# randomized radius property (smoke; the full 10k-trial run is in acceptance)


def test_radius_property_smoke(dec2):
    rng = random.Random(17)
    grc = dec2.grc
    prof_table = {(1, 2): (12, 14), (1, 2, 3): (16, 24)}
    for _ in range(100):
        t = rng.choice(list(prof_table))
        d_block, d_ham = prof_table[t]
        msg = tuple(rng.randrange(2) for _ in range(12))
        cw = dec2.full_code.encode(msg)
        if rng.random() < 0.5:
            radius = (d_ham - 1) // 2
            positions = rng.sample([(r, c) for r in t for c in range(23)], radius)
            rec = _corrupt(cw, positions)
            got = dec2.candidate_message(rec, Candidate(len(t), t, "hamming"))
        else:
            radius = (d_block - 1) // 2
            cols = rng.sample(range(23), radius)
            positions = []
            for c in cols:
                rows = rng.sample(t, rng.randrange(1, len(t) + 1))
                positions.extend((r, c) for r in rows)
            rec = _corrupt(cw, positions)
            got = dec2.candidate_message(rec, Candidate(len(t), t, "block"))
        assert got == msg


# ---------------------------------------------------------------------------
# FER simulation


def test_fer_zero_noise(dec1):
    cfg = SimConfig(dec1.grc, Bsc(0.0), frames=20, seed=1, max_depth=4)
    res = fer_simulate(cfg)
    assert all(s.fer == 0.0 for s in res.per_depth)


def test_fer_half_noise_is_bad(dec1):
    cfg = SimConfig(dec1.grc, Bsc(0.5), frames=60, seed=2, max_depth=4)
    res = fer_simulate(cfg)
    assert res.per_depth[-1].fer > 0.5


def test_fer_depth_monotone_and_reproducible(dec2):
    cfg = SimConfig(dec2.grc, AwgnBpskHard(-5.0), frames=120, seed=11, max_depth=4)
    res = fer_simulate(cfg)
    fers = [s.fer for s in res.per_depth]
    assert all(a >= b for a, b in zip(fers, fers[1:]))
    assert fer_simulate(cfg) == res


def test_fer_threads_match_serial(dec2):
    base = SimConfig(dec2.grc, Bsc(0.2), frames=60, seed=5, max_depth=3)
    threaded = SimConfig(dec2.grc, Bsc(0.2), frames=60, seed=5, max_depth=3, threads=2)
    assert fer_simulate(base).per_depth == fer_simulate(threaded).per_depth


def test_fer_matches_serial_multiround(dec1):
    # the simulator's frame loop must agree with multi_round_decode
    cfg = SimConfig(dec1.grc, Bsc(0.2), frames=40, seed=13, max_depth=4)
    res = fer_simulate(cfg)
    errors = 0
    for f in range(cfg.frames):
        msg_rng = rng_for(cfg.seed, f, 4)
        msg = tuple(int(x) for x in msg_rng.integers(0, 2, size=12))
        cw = dec1.full_code.encode(msg)
        rec = []
        for b in range(4):
            rec.extend(
                transmit(cw[b * 23 : (b + 1) * 23], cfg.channel, rng_for(cfg.seed, f, b), GF2)
            )
        out = multi_round_decode(dec1.grc, rec, 4, GenieVerifier(msg), decoder=dec1)
        if out.message != msg:
            errors += 1
    assert errors == res.per_depth[-1].frame_errors


def test_fer_crc_counts_false_accepts(dec1):
    crc = Poly.parse(GF2, "x^3+x+1")
    cfg = SimConfig(dec1.grc, Bsc(0.4), frames=150, seed=3, max_depth=2, crc=crc)
    res = fer_simulate(cfg)
    assert any(s.false_accepts > 0 for s in res.per_depth)
    assert all(s.false_accepts <= s.frame_errors for s in res.per_depth)


def test_sim_config_validation(dec1):
    with pytest.raises(ValueError):
        SimConfig(dec1.grc, Bsc(0.1), frames=0, seed=1, max_depth=4)
    with pytest.raises(ValueError):
        SimConfig(dec1.grc, Bsc(0.1), frames=5, seed=1, max_depth=9)
    # a CRC of degree >= k leaves no payload bits
    with pytest.raises(ValueError, match="CRC"):
        SimConfig(dec1.grc, Bsc(0.1), frames=5, seed=1, max_depth=4,
                  crc=Poly.parse(GF2, "x^13+x+1"))


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
    dec = GrcDecoder(grc)
    msg = (1, 0, 1, 1)
    cw = dec.full_code.encode(msg)
    # block radius of the full set: (11 - 1) // 2 = 5 column errors
    rec = list(cw)
    for c in (0, 2, 5, 7, 9):
        for r in range(4):
            rec[r * 11 + c] ^= 1
    got = dec.candidate_message(rec, Candidate(4, (1, 2, 3, 4), "block"))
    assert got == msg
