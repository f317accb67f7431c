import dataclasses
import random
from itertools import product

import pytest

from grclib import cli
from grclib.bounds import bound_suite, check_cyclic_lower_bound, check_qc_type2_bounds
from grclib.codes import LinearCode
from grclib.codetable import _interpretations, load_table
from grclib.fields import field_create
from grclib.grc import (
    as_blocked,
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
from grclib.poly import Poly, companion_matrix, poly_gcd
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
    assert grc.base.cyclic_gen == g.monic()
    assert [str(gi // g) for gi in grc.qc] == ["1", "x", "x^2", "x^3"]


def _mult_mod_matrix(f, h):
    """Matrix of multiplication by f on F_q[x]/(h), basis 1, x, ..., x^(deg h - 1)."""
    k, x = h.degree, Poly.x(f.field)
    rows, r = [], f % h
    for _ in range(k):
        rows.append([r.coeff(j) for j in range(k)])
        r = (r * x) % h
    return Matrix.from_rows(f.field, rows)


def _rotation(a, b, n):
    """The least s with b = x^s a mod x^n - 1, or None."""
    xn1 = Poly.xn_minus_1(a.field, n)
    for s in range(n):
        if a == b:
            return s
        a = a.shift(1) % xn1
    return None


def test_from_qc_generator_rows_match_polynomial_products():
    """Row i of block j is x^i g_j mod x^n - 1, for every catalog reading and
    two GF(3) codes.  A code is Type-I exactly when every g_j is a rotation
    x^s g_1, with A_j = shift^-s.  Any other code is Type-II exactly when
    every cofactor f_j is a unit mod h = (x^n - 1)/g, with transforms
    B_j = M(f_1)^-1 M(f_j) from polynomial multiplication and B_j G_1 = G_j."""
    cases = [
        (entry.n, [a, b])
        for entry in load_table()
        if entry.k <= 26
        for _, _, a, b in _interpretations(entry, GF2)
    ]
    g3 = Poly.parse(GF3, "x^3+2x^2+x+2")  # h = x^5+x^4+x+1; 2x^2+1 shares x+1 with h
    for cofs in (["x+2", "2x^3+x+1", "x^4+x+2"], ["x+2", "2x^2+1"], ["x^2", "x^6", "x^9"]):
        cases.append((8, [Poly.parse(GF3, f) * g3 for f in cofs]))
    cases.append((23, list(presets.golay_type1_shift(13).qc)))
    seen = set()
    for n, gens in cases:
        field = gens[0].field
        xn1 = Poly.xn_minus_1(field, n)
        grc = from_qc_generators(n, gens)
        want = []
        for i in range(grc.k):
            products = [(Poly.monomial(field, i) * g) % xn1 for g in gens]
            want.append([p.coeff(j) for p in products for j in range(n)])
        assert [list(r) for r in grc.gen.rows()] == want
        shifts = [_rotation(grc.qc[0], gj, n) for gj in grc.qc]
        assert isinstance(grc.variant, TypeI) == (None not in shifts)
        if None not in shifts:
            shift = Permutation.cyclic_shift(n)
            assert grc.variant.perms == tuple(shift ** -s for s in shifts[1:])
            seen.add((field.q, "type1"))
            continue
        g = grc.base.cyclic_gen
        cofs = [gj // g for gj in grc.qc]
        h = xn1 // g
        units = all(poly_gcd(c, h).degree == 0 for c in cofs)
        assert isinstance(grc.variant, TypeII) == units
        seen.add((field.q, units))
        if units:
            m1_inv = _mult_mod_matrix(cofs[0], h).inverse()
            for j, b in enumerate(grc.variant.transforms, start=2):
                assert b == m1_inv @ _mult_mod_matrix(cofs[j - 1], h)
                assert b @ grc.block_matrix(1) == grc.block_matrix(j)
    assert seen == {(2, True), (2, False), (3, True), (3, False), (2, "type1"), (3, "type1")}


@pytest.mark.parametrize("m", [4, 12, 13, 23])
def test_golay_shift_family_is_type1(m):
    """(g, x g, ..., x^(m-1) g) is Type-I with A_j = shift^-(j-1), also when
    x^(m-1) g wraps mod x^23 - 1 (m >= 13), and its file round-trips."""
    grc = presets.golay_type1_shift(m)
    shift = Permutation.cyclic_shift(23)
    assert grc.variant == TypeI(tuple(shift ** -(j - 1) for j in range(2, m + 1)))
    back = grc_from_text(grc_to_text(grc))
    assert (back.gen, back.variant) == (grc.gen, grc.variant)


@pytest.mark.parametrize(
    "field, n, gens, shifts",
    [
        (GF2, 7, ["x^3+x+1", "x^4+x^2+x"], [1]),
        (GF2, 7, ["x^3+x+1", "x^8+x^6+x^5"], [5]),  # x^5 g wraps mod x^7 - 1
        (GF3, 8, ["x^3+2x^2+x+2", "x^9+2x^8+x^7+2x^6"], [6]),  # x^6 g wraps
        # f_1 = x^2+x+1 is a unit mod h but no monomial
        (GF2, 7, ["x^5+x^4+1", "x^6+x^5+x"], [1]),
        (GF2, 7, ["x^5+x^4+1"], []),  # m = 1
        # row 0 1 1 0 1 1 0 has period 3: x^4 g_1 = x g_1, the least shift
        (GF2, 6, ["x^4+x^3+x+1", "x^8+x^7+x^5+x^4"], [1]),
    ],
    ids=["shift", "wrapped", "gf3-wrapped", "unit-f1", "m1", "periodic"],
)
def test_qc_rotations_are_type1(field, n, gens, shifts):
    grc = from_qc_generators(n, [Poly.parse(field, g) for g in gens])
    shift = Permutation.cyclic_shift(n)
    assert grc.variant == TypeI(tuple(shift ** -s for s in shifts))
    rows = grc.block_matrix(1).rows()
    for j, perm in enumerate(grc.variant.perms, start=2):
        assert [perm.apply(r) for r in rows] == grc.block_matrix(j).rows()


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
# cyclic-structure bound rows


def _cyclic_row(grc):
    return check_cyclic_lower_bound(grc, distance_profile(grc))


def test_cyclic_lower_bound_golay_m11(golay):
    row = _cyclic_row(type1_regular(golay, Permutation.cyclic_shift(23), 11))
    assert dict(row.inputs) == {"n": 23, "m": 11, "kappa": 11, "d": 7}
    assert row.bound[:4] == (7, 11, 13, 14)
    assert (row.verdict, row.note) == ("satisfied", "")


def test_cyclic_lower_bound_violated_for_hamming_m6():
    simplex_gen = Poly.parse(GF2, presets.SIMPLEX_15_4_GEN)
    h = Poly.xn_minus_1(GF2, 15) // simplex_gen
    hamming = LinearCode.cyclic(GF2, 15, h)
    row = _cyclic_row(type1_regular(hamming, Permutation.cyclic_shift(15), 6))
    assert dict(row.inputs)["kappa"] == 2
    assert (row.verdict, row.note) == ("not-applicable", "m=6 exceeds kappa=2")


def test_cyclic_lower_bound_needs_a_cyclic_base():
    code = LinearCode.from_rows(GF2, [[1, 1, 0]])
    grc = type1_regular(code, Permutation.identity(3), 2)
    with pytest.raises(ValueError, match="not cyclic"):
        _cyclic_row(grc)


def test_cyclic_lower_bound_only_for_shift_powers(golay):
    """The kappa gate holds only for A_j = sigma^j or sigma^-j, j < m."""
    shift, ident = Permutation.cyclic_shift(23), Permutation.identity(23)
    outside = (type1(golay, [ident, ident, ident]), type1(golay, [shift, shift]))
    for grc in outside:
        row = _cyclic_row(grc)
        assert (row.verdict, row.note) == ("not-applicable", "not a cyclic-shift construction")
    inside = (presets.golay_type1_shift(4), type1_regular(golay, shift, 11),
              type1_regular(golay, shift, 1))
    for grc in inside:
        row = _cyclic_row(grc)
        assert (row.verdict, row.note) == ("satisfied", "")


def test_qc_type2_conditions_gf11():
    gf11 = field_create(11)
    g = Poly.parse(gf11, "x^4+3x^3+5x^2+8x+1")
    fs = [
        Poly.parse(gf11, "3x^6+8x^5+4x^4+x^2+7x+5"),
        Poly.parse(gf11, "10x^6+5x^5+7x^4+7x^2+9x+2"),
        Poly.parse(gf11, "9x^6+4x^5+7x^4+6x^2+6"),
    ]
    grc = from_qc_generators(10, [f * g for f in fs])
    row = check_qc_type2_bounds(grc, distance_profile(grc))
    # all three cofactors have degree 6: the degree condition fails honestly,
    # and it is the only one the note names
    assert (row.verdict, row.note) == ("not-applicable", "cofactor degrees not strictly increasing")
    assert dict(row.inputs)["d"] == 5
    assert row.bound[1] == (5, 10, 15)


def test_qc_type2_conditions_satisfied_case():
    g = Poly.parse(GF2, presets.GOLAY_GEN)
    f1 = Poly.one(GF2)
    f2 = Poly.parse(GF2, "x^3+x+1")
    grc = from_qc_generators(23, [f1 * g, f2 * g])
    prof = distance_profile(grc)
    row = check_qc_type2_bounds(grc, prof)
    assert (row.verdict, row.note) == ("satisfied", "")
    assert row.actual == (prof.sbdh, prof.shdh)


def test_qc_type2_check_needs_qc_generators():
    grc = presets.golay_classical_repetition(2)
    with pytest.raises(ValueError, match="quasi-cyclic"):
        check_qc_type2_bounds(grc, distance_profile(grc))


def _lowered(prof, i, value):
    """``prof`` with entry i of its SBDH + SHDH set to ``value``."""
    values = list(prof.sbdh + prof.shdh)
    values[i] = value
    return dataclasses.replace(prof, sbdh=tuple(values[:prof.m]), shdh=tuple(values[prof.m:]))


@pytest.mark.parametrize("kind", ["cyclic", "qc-sbdh", "qc-shdh"])
def test_cyclic_structure_rows_read_violated(kind, tmp_path, monkeypatch, capsys):
    """A profile below an implied bound reads ``violated``: in the row the
    check builds, in the row ``bound_suite`` carries, and so in ``grc bounds``,
    which exits 2."""
    if kind == "cyclic":
        grc, check, name = presets.golay_type1_shift(4), check_cyclic_lower_bound, "cyclic-kappa-lower"
    else:
        g = Poly.parse(GF2, presets.GOLAY_GEN)
        grc = from_qc_generators(23, [g, Poly.parse(GF2, "x^3+x+1") * g])
        check, name = check_qc_type2_bounds, "qc-type2-lower"
    prof = distance_profile(grc)
    row = check(grc, prof)
    assert row.verdict == "satisfied"
    implied = row.bound if kind == "cyclic" else row.bound[0] + row.bound[1]
    # SBDH or SHDH at r = 2, one below its implied bound
    i = grc.m + 1 if kind == "qc-shdh" else 1
    low = _lowered(prof, i, implied[i] - 1)
    assert check(grc, low).verdict == "violated"
    assert [r.verdict for r in bound_suite(grc, low) if r.name == name] == ["violated"]
    path = tmp_path / "code.grc"
    path.write_text(grc_to_text(grc))
    monkeypatch.setattr(cli, "distance_profile", lambda code, cap=None: low)
    assert cli.main(["bounds", "--code", str(path)]) == 2
    out = capsys.readouterr().out.splitlines()
    assert [ln.split(",")[-2] for ln in out if ln.startswith(name + ",")] == ["violated"]


# ---------------------------------------------------------------------------
# serialization


def test_grc_roundtrip_type1(golay, golay_shift4):
    # a QC file and a permutation file, whose base keeps no polynomial
    for grc in (golay_shift4, type1_regular(golay, Permutation.cyclic_shift(23), 4)):
        back = grc_from_text(grc_to_text(grc))
        assert back.gen == grc.gen
        assert back.m == grc.m
        assert isinstance(back.variant, TypeI)
        rows = [rep.csv_row() for rep in bound_suite(grc, distance_profile(grc))]
        assert [rep.csv_row() for rep in bound_suite(back, distance_profile(back))] == rows
        assert rows[-1].startswith("cyclic-kappa-lower,")


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


def test_grc_roundtrip_blocked():
    # block 1 spans one dimension of the code's two
    grc = as_blocked(LinearCode.from_rows(GF2, [[1, 0, 0, 1], [0, 0, 1, 0]]), 2)
    assert (grc.k, grc.dim) == (1, 2)
    assert repr(grc) == "GrcCode[(2,2),2]_2:blocked"
    text = grc_to_text(grc)
    assert text.startswith("2 4 2 2\n")
    back = grc_from_text(text)
    assert (back.gen, back.base, back.variant) == (grc.gen, grc.base, None)
    with pytest.raises(ValueError, match="full rank"):
        grc_from_text(text.replace("0 0 1 0", "1 0 0 1"))


def test_grc_text_canonicalises_transform_entries():
    # B = [[0,1],[1,1]] over GF(3), so B^2 = [[1,1],[1,2]], also written 4 1 1 -1
    base = LinearCode.from_rows(GF3, [[1, 0, 1, 1], [0, 1, 1, 2]])
    text = grc_to_text(type2(base, Matrix.from_rows(GF3, [[0, 1], [1, 1]]), 3))
    assert "transform 1 1 1 2\n" in text
    canonical = grc_from_text(text)
    written = grc_from_text(text.replace("transform 1 1 1 2\n", "transform 4 1 1 -1\n"))
    assert written.variant.transforms == canonical.variant.transforms
    assert degeneracy_and_regularity(written) == degeneracy_and_regularity(canonical)
    assert degeneracy_and_regularity(written).regular
    assert grc_to_text(written) == text


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
