import math
import random
from fractions import Fraction
from itertools import product

import pytest

from grclib.bounds import (
    classify_mds,
    flat_count,
    griesmer_g,
    griesmer_gm,
    is_fractional_mds,
    levenshtein_min_channels,
    n_points,
    qc_type1_sandwich,
    shdh_tradeoff_upper,
    singleton_block,
    singleton_bsymbol,
    type1_length_refinement,
    type1_upper,
    type1_upper_applicable,
)
from grclib.codes import Block, LinearCode
from grclib.fields import field_create
from grclib.geometry import (
    ConstructionError,
    expand_projective,
    pg_points,
    simplex_code,
    solomon_stiffler,
)
from grclib.grc import as_blocked, distance_profile, from_qc_generators, type1_regular
from grclib.matrices import Matrix
from grclib.perms import Permutation
from grclib.poly import Poly
from grclib import presets

GF2 = field_create(2)
GF3 = field_create(3)


# ---------------------------------------------------------------------------
# Griesmer


def test_griesmer_values():
    assert griesmer_g(2, 2, 7) == 11
    assert griesmer_g(2, 1, 9) == 9
    assert griesmer_g(2, 4, 5) == 11
    assert griesmer_g(2, 4, 7) == 14


def test_griesmer_gm_reduces_to_g():
    for q, k, d in [(2, 4, 7), (3, 3, 5), (11, 2, 9)]:
        assert griesmer_gm(q, 1, k, d) == griesmer_g(q, k, d)


def test_griesmer_gm_value():
    assert griesmer_gm(2, 2, 6, 11) == 45


def test_griesmer_invalid():
    with pytest.raises(ValueError):
        griesmer_g(2, 0, 5)
    with pytest.raises(ValueError):
        griesmer_gm(2, 3, 2, 5)


# ---------------------------------------------------------------------------
# Singleton family


def test_singleton_block_and_mds():
    assert singleton_block(10, 2, 6) == 8
    assert classify_mds(10, 2, 6, 8) == "mds"
    # r = 3: both equalities coincide (m | k); the ceil form also holds
    assert is_fractional_mds(10, 3, 6, 9)
    assert classify_mds(10, 3, 6, 9) == "mds"
    assert classify_mds(10, 2, 6, 7) == "neither"
    # a genuinely fractional case: m does not divide k
    assert singleton_block(10, 4, 6) == Fraction(19, 2)
    assert classify_mds(10, 4, 6, 9) == "fractional-mds"


def test_singleton_m1_edge():
    assert singleton_block(5, 1, 5) == 1


def test_singleton_bsymbol():
    assert singleton_bsymbol(23, 12, 4) == 15
    assert singleton_bsymbol(23, 12, 1) == 12  # classical Singleton
    # the b-symbol form does not bound Type-II codes: the worked value 8
    # for the two-block GF(11) code exceeds n - k + b = 6
    assert 8 > singleton_bsymbol(10, 6, 2)


# ---------------------------------------------------------------------------
# Type-I refinement


def test_refinement_rules_out_parameters():
    # q=2, k=4 instance: no [(2^k-1, 2), k+2, 2^k - 2^(k-2) - 1] exists
    rep = type1_length_refinement(2, 15, 2, 6, 11)
    assert rep.verdict == "violated"
    assert rep.bound == 46 and rep.actual == 45


def test_refinement_adds_m_minus_1_when_s_1():
    rep = type1_length_refinement(2, 23, 2, 12, 7)
    # s = ceil(7/2^10) = 1 < m: refinement adds m - s = 1
    assert rep.verdict == "satisfied"
    assert rep.bound == griesmer_gm(2, 2, 12, 7) + 1


@pytest.mark.parametrize(
    "d_m, bound, verdict",
    [(3, 12, "satisfied"), (4, griesmer_gm(2, 2, 3, 4) + 1, "violated")],
)
def test_refinement_adds_1_when_s_equals_m(d_m, bound, verdict):
    # q=2, n=4, m=2, k=3: s = ceil(d_m/2) = 2 = m and m n* = 8 > N_3 = 7
    rep = type1_length_refinement(2, 4, 2, 3, d_m)
    assert dict(rep.inputs)["s"] == 2
    assert (rep.bound, rep.actual, rep.verdict) == (bound, 12, verdict)
    assert rep.note.startswith("case s=m:")


def test_refinement_outside_cases():
    # choose parameters with s > m: ceil(d/q^(k-m)) = 3 and N_m = 3 -> s = 3 > m = 2
    rep = type1_length_refinement(2, 9, 2, 4, 9)
    assert rep.verdict == "not-applicable"


def test_type1_upper_and_applicability(golay_shift4_profile):
    assert type1_upper(23, 12, 2) == 13
    assert golay_shift4_profile.sbdh[1] <= 13
    assert type1_upper_applicable(True, 23, 12, 4)
    assert not type1_upper_applicable(True, 11, 12, 4)  # max cycle < k
    assert type1_upper(5, 5, 5) == 5


def test_gf11_beats_type1_upper():
    # the worked GF(11) two-block values exceed n - k + r
    assert 8 > type1_upper(10, 6, 2)
    assert 9 > type1_upper(10, 6, 3)


def test_shdh_tradeoff_values():
    assert shdh_tradeoff_upper(2, 2, 11, 6) == 16  # formula as printed
    assert shdh_tradeoff_upper(2, 3, 10, 4) == 24
    assert shdh_tradeoff_upper(2, 1, 5, 5) == 5  # m = 1 degenerates to d1 <= d1


def test_qc_type1_sandwich_bounds():
    lo, hi = qc_type1_sandwich(2, 2, 15, 6, 12, 0, 2)
    assert lo == griesmer_g(2, 2, 12) and hi == 2 * 15 - 6 + 2
    lo1, hi1 = qc_type1_sandwich(2, 2, 15, 6, 12, 1, 2)
    assert lo1 == min(lo, 15) and hi1 == min(hi, 15)


# ---------------------------------------------------------------------------
# channel count


def test_levenshtein_literal_formula():
    # literal reading gives 70; the quoted worked value is 1 + C(7,3) = 36
    assert levenshtein_min_channels(23, 7, 4) == 70
    assert 1 + math.comb(7, 3) == 36


def test_levenshtein_single_term():
    # t = radius + 1: only i = 0 contributes
    assert levenshtein_min_channels(7, 3, 2) == math.comb(4, 0) * (
        math.comb(3, 1) + math.comb(3, 2)
    )


def test_levenshtein_requires_t_beyond_radius():
    with pytest.raises(ValueError):
        levenshtein_min_channels(23, 7, 3)


# ---------------------------------------------------------------------------
# projective machinery


def test_pg_point_counts():
    assert len(pg_points(GF2, 4)) == 15
    assert len(pg_points(GF2, 1)) == 1
    assert len(pg_points(GF3, 2)) == 4


def test_pg_points_normalized_distinct():
    pts = pg_points(GF3, 3)
    assert len(set(pts)) == 13
    for p in pts:
        first = next(x for x in p if x)
        assert first == 1
    assert list(pts) == sorted(pts)


def test_flat_count():
    assert flat_count(2, 4, 1) == 15
    assert flat_count(2, 4, 2) == 35
    assert n_points(2, 4) == 15


def test_simplex_code_parameters():
    code = simplex_code(GF2, 4)
    assert (code.n, code.k) == (15, 4)
    assert code.min_distance() == 8
    code3 = simplex_code(GF3, 2)
    assert (code3.n, code3.k) == (4, 2)
    assert code3.min_distance() == 3


def test_expand_m1_identity(golay):
    grc = type1_regular(golay, Permutation.cyclic_shift(23), 1)
    expanded = expand_projective(grc)
    assert expanded.gen == golay.gen


def test_expand_shift4_parameters(golay_shift4, golay_shift4_profile):
    expanded = expand_projective(golay_shift4)
    assert expanded.n == 23 * 15
    assert expanded.k == 12
    assert expanded.min_distance() == 2 ** 3 * golay_shift4_profile.sbdh[3]


def test_expand_scaling_full_distribution():
    # [(6,2),3]_2 block code: the oracle enumerates all 8 codewords
    rng = random.Random(5)
    while True:
        rows = [[rng.randrange(2) for _ in range(6)] for _ in range(3)]
        if Matrix.from_rows(GF2, rows).rank() == 3:
            break
    code = LinearCode.from_rows(GF2, rows)
    blocked = as_blocked(code, 2)
    expanded = expand_projective(blocked)
    got = expanded.weight_distribution().as_dict()
    expect: dict[int, int] = {}
    for msg in product(range(2), repeat=3):
        cw = [0] * 6
        for c, row in zip(msg, rows):
            if c:
                for j, x in enumerate(row):
                    cw[j] ^= x
        bw = sum(1 for j in range(3) if cw[j] or cw[3 + j])
        expect[2 * bw] = expect.get(2 * bw, 0) + 1
    assert got == expect


@pytest.mark.parametrize("q,k,m,seed", [(2, 4, 2, 0), (2, 5, 3, 1), (3, 3, 2, 2), (3, 4, 3, 3)])
def test_expand_scaling_law(q, k, m, seed):
    field = field_create(q)
    rng = random.Random(seed)
    n = m * rng.randrange(2, 5)
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        if Matrix.from_rows(field, rows).rank() == k:
            break
    blocked = as_blocked(LinearCode.from_rows(field, rows), m)
    expanded = expand_projective(blocked)
    assert expanded.k == k  # dimension preserved
    block_dist = blocked.full_code().weight_distribution(Block(m)).as_dict()
    ham_dist = expanded.weight_distribution().as_dict()
    assert ham_dist == {q ** (m - 1) * w: c for w, c in block_dist.items()}


# ---------------------------------------------------------------------------
# Solomon-Stiffler


def test_ss_24_5_12():
    code = solomon_stiffler(GF2, 5, 3)
    assert (code.n, code.k) == (24, 5)
    assert code.min_distance() == 12
    assert code.n == griesmer_g(2, 5, 12)


def test_ss_14_4_7():
    code = solomon_stiffler(GF2, 4, 1)
    assert (code.n, code.k) == (14, 4)
    assert code.min_distance() == 7
    assert code.n == griesmer_g(2, 4, 7)  # 7+4+2+1


def test_ss_delta_bounds():
    solomon_stiffler(GF3, 3, 2, delta=2)  # delta = q - 1 accepted
    with pytest.raises(ValueError):
        solomon_stiffler(GF3, 3, 2, delta=3)  # delta = q rejected
    with pytest.raises(ValueError):
        solomon_stiffler(GF2, 4, 4)  # k1 must be < k


def test_ss_delta_puncture():
    code = solomon_stiffler(GF2, 4, 2, delta=1)
    assert (code.n, code.k) == (11, 4)
    assert code.min_distance() == 5
    assert code.n == griesmer_g(2, 4, 5)


def test_ss_nested_multiset_guard():
    # two nested subspaces with s = 1 would remove a point twice
    with pytest.raises(ConstructionError):
        solomon_stiffler(GF2, 5, [3, 2], s=1)


def test_ss_two_copies_two_subspaces():
    code = solomon_stiffler(GF2, 4, [3, 2], s=2)
    assert code.n == 2 * 15 - 7 - 3
    assert code.n == griesmer_g(2, 4, code.min_distance())
