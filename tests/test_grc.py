import random
from itertools import product

import pytest

from grclib.codes import LinearCode
from grclib.fields import field_create
from grclib.grc import (
    as_blocked,
    check_cyclic_lower_bound,
    check_qc_type2_bounds,
    degeneracy_and_regularity,
    distance_profile,
    from_qc_generators,
    grc_from_text,
    grc_to_text,
    type1,
    type1_regular,
    type2,
    TypeI,
    TypeII,
)
from grclib.matrices import Matrix
from grclib.perms import Permutation
from grclib.poly import Poly, companion_matrix
from grclib import presets

GF2 = field_create(2)
GF3 = field_create(3)


# ---------------------------------------------------------------------------
# independent profile oracle (plain python, every subset separately)


def _oracle_profile(field, gen_rows, m):
    k = len(gen_rows)
    n = len(gen_rows[0]) // m
    subsets = [
        tuple(i for i in range(m) if mask >> i & 1)
        for mask in range(1, 2 ** m)
    ]
    best_block = {t: None for t in subsets}
    best_ham = {t: None for t in subsets}
    for msg in product(range(field.q), repeat=k):
        if not any(msg):
            continue
        cw = [0] * (m * n)
        for coef, row in zip(msg, gen_rows):
            if coef:
                for j, x in enumerate(row):
                    if x:
                        cw[j] = field.add(cw[j], field.mul(coef, x))
        for t in subsets:
            cols = sum(
                1 for j in range(n) if any(cw[i * n + j] for i in t)
            )
            ham = sum(1 for i in t for j in range(n) if cw[i * n + j])
            if ham == 0:
                continue
            if best_block[t] is None or cols < best_block[t]:
                best_block[t] = cols
            if best_ham[t] is None or ham < best_ham[t]:
                best_ham[t] = ham
    sbdh = [min(best_block[t] for t in subsets if len(t) == r) for r in range(1, m + 1)]
    shdh = [min(best_ham[t] for t in subsets if len(t) == r) for r in range(1, m + 1)]
    return tuple(sbdh), tuple(shdh)


@pytest.mark.parametrize("q,k,n,m,seed", [(2, 3, 4, 2, 0), (3, 2, 3, 3, 1), (2, 4, 3, 3, 2), (5, 2, 2, 2, 3)])
def test_profile_matches_bruteforce_oracle(q, k, n, m, seed):
    field = field_create(q)
    rng = random.Random(seed)
    while True:
        rows = [[rng.randrange(q) for _ in range(m * n)] for _ in range(k)]
        if Matrix.from_rows(field, rows).rank() == k:
            break
    grc = as_blocked(LinearCode.from_rows(field, rows), m)
    prof = distance_profile(grc)
    sbdh, shdh = _oracle_profile(field, rows, m)
    assert prof.sbdh == sbdh
    assert prof.shdh == shdh


# ---------------------------------------------------------------------------
# constructors


def test_type1_regular_m1_is_base(golay):
    grc = type1_regular(golay, Permutation.cyclic_shift(23), 1)
    assert grc.m == 1
    assert grc.gen == golay.gen


def test_type1_full_hamming_distance_is_m_times_d(golay_shift4):
    full = golay_shift4.full_code()
    assert full.min_distance() == 4 * 7


def test_type1_shdh_formula(golay_shift4_profile):
    assert golay_shift4_profile.shdh == tuple(7 * r for r in range(1, 5))


def test_type1_size_mismatch(golay):
    with pytest.raises(ValueError):
        type1_regular(golay, Permutation.cyclic_shift(11), 3)


def test_type2_identity_m1(golay):
    grc = type2(golay, Matrix.identity(GF2, 12), 1)
    assert grc.gen == golay.gen


def test_type2_rejects_singular(golay):
    singular = Matrix.zeros(GF2, 12, 12)
    with pytest.raises(ValueError, match="singular"):
        type2(golay, singular, 2)


def test_from_qc_detects_type1(golay_shift4):
    assert isinstance(golay_shift4.variant, TypeI)
    rep = degeneracy_and_regularity(golay_shift4)
    assert rep.regular and rep.non_degenerate


def test_from_qc_detects_type2(golay_mixed):
    assert isinstance(golay_mixed.variant, TypeII)
    rep = degeneracy_and_regularity(golay_mixed)
    assert rep.non_degenerate


def test_from_qc_derives_dimension():
    g = Poly.parse(GF2, presets.GOLAY_GEN)
    grc = presets.golay_type1_shift(4)
    assert grc.dim == 12
    assert grc.qc.g == g.monic()
    assert [str(c) for c in grc.qc.cofactors] == ["1", "x", "x^2", "x^3"]


def test_from_qc_rejects_zero():
    with pytest.raises(ValueError):
        from_qc_generators(7, [Poly.zero(GF2)])


def test_type1_regular_profile_equals_qc_shift_profile(golay, golay_shift4_profile):
    grc = type1_regular(golay, Permutation.cyclic_shift(23), 4)
    prof = distance_profile(grc)
    assert prof.sbdh == golay_shift4_profile.sbdh
    assert prof.shdh == golay_shift4_profile.shdh


# ---------------------------------------------------------------------------
# published hierarchies (the fast ones; the full set lives in acceptance)


def test_example_profiles(golay_shift4_profile, golay_mixed_profile):
    assert golay_shift4_profile.sbdh == (7, 11, 13, 15)
    assert golay_mixed_profile.sbdh == (7, 12, 16, 19)
    assert golay_mixed_profile.shdh == (7, 14, 24, 36)


def test_profile_monotone(golay_shift4_profile, golay_mixed_profile):
    for prof in (golay_shift4_profile, golay_mixed_profile):
        assert all(a <= b for a, b in zip(prof.sbdh, prof.sbdh[1:]))
        assert all(a <= b for a, b in zip(prof.shdh, prof.shdh[1:]))
        assert all(h >= b for b, h in zip(prof.sbdh, prof.shdh))


def test_profile_m1():
    code = presets.binary_golay()
    grc = type1_regular(code, Permutation.cyclic_shift(23), 1)
    prof = distance_profile(grc)
    assert prof.sbdh == (7,)
    assert prof.shdh == (7,)


def test_simplex_shift_profile(simplex):
    # the second value is only lower-bounded by 12 elsewhere; it is exactly 12
    grc = type1_regular(simplex, Permutation.cyclic_shift(15), 4)
    prof = distance_profile(grc)
    assert prof.sbdh == (8, 12, 14, 15)
    assert prof.sbdh[1] >= 12


def test_hamming_dual_shift_profile():
    # m = 6 copies of the [15,11,3] Hamming code under cyclic shifts
    simplex_gen = Poly.parse(GF2, presets.SIMPLEX_15_4_GEN)
    h = Poly.xn_minus_1(GF2, 15) // simplex_gen
    gens = [Poly.monomial(GF2, i) * h for i in range(6)]
    grc = from_qc_generators(15, gens)
    prof = distance_profile(grc)
    assert prof.sbdh[1] == 3


def test_per_subset_table_shape(golay_mixed_profile):
    table = golay_mixed_profile.subset_table()
    assert len(table) == 15
    assert table[(1,)] == (7, 7)
    assert min(h for (t, (b, h)) in table.items() if len(t) == 2) == 14


def test_extended_cyclic_lower_bounds(golay, ternary_golay):
    # extended-cyclic repetitions under (1..n)(n+1) with d(ext) = d + 1
    # satisfy sbdh_r >= g_q(r, d + 1)
    from grclib.bounds import griesmer_g

    for base, n, m, q, d in ((golay, 23, 11, 2, 7), (ternary_golay, 11, 5, 3, 5)):
        ext = base.extend()
        assert ext.min_distance() == d + 1
        grc = type1_regular(ext, Permutation.extended_shift(n), m)
        prof = distance_profile(grc)
        for r in range(1, m + 1):
            assert prof.sbdh[r - 1] >= griesmer_g(q, r, d + 1)


def test_profile_with_zero_block():
    g = Poly.parse(GF2, "x^2+x+1")
    grc = from_qc_generators(3, [g, Poly.zero(GF2)])
    prof = distance_profile(grc)
    assert prof.subset_table()[(2,)] == (None, None)
    assert prof.sbdh[0] == 3  # block 1 carries the repetition code


# ---------------------------------------------------------------------------
# structure predicates


def test_identity_perms_degenerate():
    base = presets.binary_golay()
    grc = type1(base, [Permutation.identity(23)])
    rep = degeneracy_and_regularity(grc)
    assert rep.regular
    assert not rep.non_degenerate


def test_shift_perms_non_degenerate(golay_shift4):
    rep = degeneracy_and_regularity(golay_shift4)
    assert rep.non_degenerate and rep.regular


def test_companion_powers_independent():
    b = companion_matrix(Poly.parse(GF2, "x^4+x+1"))
    flats = [Matrix.identity(GF2, 4).flatten()]
    cur = b
    for _ in range(3):
        flats.append(cur.flatten())
        cur = cur @ b
    assert Matrix.from_rows(GF2, flats).rank() == 4


def test_irregular_type1():
    base = presets.binary_golay()
    pi = Permutation.cyclic_shift(23)
    grc = type1(base, [pi, pi])  # A_2 = A_1, not A_1^2
    rep = degeneracy_and_regularity(grc)
    assert not rep.regular
    assert not rep.non_degenerate


def test_structure_requires_variant():
    code = presets.binary_golay()
    blocked = as_blocked(
        LinearCode.from_rows(GF2, [list(r) + list(r) for r in code.gen.rows()]), 2
    )
    with pytest.raises(ValueError):
        degeneracy_and_regularity(blocked)


# ---------------------------------------------------------------------------
# precondition reports


def test_cyclic_lower_bound_golay_m11(golay):
    grc = type1_regular(golay, Permutation.cyclic_shift(23), 11)
    rep = check_cyclic_lower_bound(grc)
    assert rep.satisfied
    assert rep.kappa_value == 11
    assert rep.base_distance == 7
    assert rep.implied_sbdh_lower[:4] == (7, 11, 13, 14)


def test_cyclic_lower_bound_violated_for_hamming_m6():
    simplex_gen = Poly.parse(GF2, presets.SIMPLEX_15_4_GEN)
    h = Poly.xn_minus_1(GF2, 15) // simplex_gen
    hamming = LinearCode.cyclic(GF2, 15, h)
    grc = type1_regular(hamming, Permutation.cyclic_shift(15), 6)
    rep = check_cyclic_lower_bound(grc)
    assert rep.kappa_value == 2
    assert not rep.satisfied


def test_cyclic_lower_bound_needs_provenance():
    code = LinearCode.from_rows(GF2, [[1, 0, 1], [0, 1, 1]])
    grc = type1_regular(code, Permutation.identity(3), 2)
    with pytest.raises(ValueError):
        check_cyclic_lower_bound(grc)


def test_qc_type2_conditions_gf11():
    gf11 = field_create(11)
    g = Poly.parse(gf11, "x^4+3x^3+5x^2+8x+1")
    fs = [
        Poly.parse(gf11, "3x^6+8x^5+4x^4+x^2+7x+5"),
        Poly.parse(gf11, "10x^6+5x^5+7x^4+7x^2+9x+2"),
        Poly.parse(gf11, "9x^6+4x^5+7x^4+6x^2+6"),
    ]
    rep = check_qc_type2_bounds(10, [f * g for f in fs])
    assert all(rep.cofactor_coprime)
    assert rep.joint_gcd_one
    # all three cofactors have degree 6: the degree condition fails honestly
    assert not rep.degrees_increasing
    assert rep.base_distance == 5
    assert rep.implied_shdh_lower == (5, 10, 15)


def test_qc_type2_conditions_satisfied_case():
    g = Poly.parse(GF2, presets.GOLAY_GEN)
    f1 = Poly.one(GF2)
    f2 = Poly.parse(GF2, "x^3+x+1")
    rep = check_qc_type2_bounds(23, [f1 * g, f2 * g])
    assert rep.satisfied
    grc = from_qc_generators(23, [f1 * g, f2 * g])
    prof = distance_profile(grc)
    assert all(a >= b for a, b in zip(prof.sbdh, rep.implied_sbdh_lower))
    assert all(a >= b for a, b in zip(prof.shdh, rep.implied_shdh_lower))


# ---------------------------------------------------------------------------
# serialization


def test_grc_roundtrip_type1(golay_shift4):
    text = grc_to_text(golay_shift4)
    back = grc_from_text(text)
    assert back.gen == golay_shift4.gen
    assert back.m == golay_shift4.m
    assert isinstance(back.variant, TypeI)


def test_grc_roundtrip_type2():
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
    back = grc_from_text(grc_to_text(grc))
    assert back.gen == grc.gen
    assert isinstance(back.variant, TypeII)


def test_grc_roundtrip_detects_tampering(golay_shift4):
    text = grc_to_text(golay_shift4)
    lines = text.splitlines()
    # flip one generator bit
    row = lines[1].split()
    row[0] = "1" if row[0] == "0" else "0"
    lines[1] = " ".join(row)
    with pytest.raises(ValueError, match="disagrees"):
        grc_from_text("\n".join(lines))


def test_grc_text_names_missing_parts(golay_shift4):
    lines = grc_to_text(golay_shift4).splitlines()
    with pytest.raises(ValueError, match="header"):
        grc_from_text("")
    with pytest.raises(ValueError, match="generator rows"):
        grc_from_text("\n".join(lines[:3]))
    with pytest.raises(ValueError, match="variant"):
        grc_from_text("\n".join(lines[: 1 + golay_shift4.k]))
