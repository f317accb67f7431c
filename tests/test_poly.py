import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from grclib.fields import field_create
from grclib.matrices import Matrix
from grclib.poly import (
    Poly,
    companion_matrix,
    factor_xn_minus_1,
    is_irreducible,
    kappa,
    poly_gcd,
    poly_mul_mod,
)

# ---------------------------------------------------------------------------
# independent schoolbook oracle on {degree: coeff} dicts


def _oracle_mul(a: dict, b: dict, p: int) -> dict:
    out: dict[int, int] = {}
    for i, ai in a.items():
        for j, bj in b.items():
            out[i + j] = (out.get(i + j, 0) + ai * bj) % p
    return {d: c for d, c in out.items() if c}


def _oracle_mod(a: dict, m: dict, p: int) -> dict:
    a = dict(a)
    dm = max(m)
    inv = pow(m[dm], p - 2, p)
    while a and max(a) >= dm:
        da = max(a)
        f = a[da] * inv % p
        for d, c in m.items():
            key = da - dm + d
            a[key] = (a.get(key, 0) - f * c) % p
        a = {d: c for d, c in a.items() if c}
    return a


def _as_dict(poly: Poly) -> dict:
    return {i: c for i, c in enumerate(poly.coeffs) if c}


def test_mul_mod_gf2_shift():
    gf2 = field_create(2)
    x = Poly.x(gf2)
    mod = Poly.xn_minus_1(gf2, 3)
    assert poly_mul_mod(x, x * x, mod) == Poly.one(gf2)


def test_mul_mod_char2_square():
    gf2 = field_create(2)
    a = Poly.parse(gf2, "x+1")
    mod = Poly.xn_minus_1(gf2, 3)
    assert poly_mul_mod(a, a, mod) == Poly.parse(gf2, "x^2+1")


def test_mul_mod_gf3_matches_schoolbook_oracle():
    gf3 = field_create(3)
    a = Poly.parse(gf3, "x+2")
    b = Poly.parse(gf3, "x+1")
    mod = Poly.from_coeffs(gf3, [-1, 0, 1])  # x^2 - 1
    got = poly_mul_mod(a, b, mod)
    expect = _oracle_mod(_oracle_mul(_as_dict(a), _as_dict(b), 3), _as_dict(mod), 3)
    assert _as_dict(got) == expect


def test_mul_mod_errors():
    gf2, gf3 = field_create(2), field_create(3)
    with pytest.raises(ValueError, match="field mismatch"):
        poly_mul_mod(Poly.one(gf2), Poly.one(gf3), Poly.x(gf2))
    with pytest.raises(ZeroDivisionError):
        poly_mul_mod(Poly.one(gf2), Poly.one(gf2), Poly.zero(gf2))


def test_gcd_shared_root():
    gf3 = field_create(3)
    a = Poly.from_coeffs(gf3, [-1, 0, 1])  # x^2 - 1
    b = Poly.from_coeffs(gf3, [-1, 1])  # x - 1
    assert poly_gcd(a, b) == Poly.parse(gf3, "x+2")


def test_gcd_with_zero_is_monic_input():
    gf3 = field_create(3)
    f = Poly.parse(gf3, "2x^2+2")
    assert poly_gcd(f, Poly.zero(gf3)) == f.monic()
    with pytest.raises(ValueError):
        poly_gcd(Poly.zero(gf3), Poly.zero(gf3))


def test_gcd_euclidean_oracle():
    # independent Euclidean remainder loop on dicts, then compare
    gf2 = field_create(2)
    a = Poly.parse(gf2, "x^3+x+1")
    b = Poly.xn_minus_1(gf2, 15)
    da, db = _as_dict(a), _as_dict(b)
    while db:
        da, db = db, _oracle_mod(da, db, 2)
    got = poly_gcd(a, b)
    assert _as_dict(got) == da
    assert got.divides(b)


def test_gcd_divides_both_inputs():
    gf3 = field_create(3)
    a = Poly.parse(gf3, "x^4+2x^2+1")
    b = Poly.parse(gf3, "x^3+2x")
    g = poly_gcd(a, b)
    assert g.is_monic()
    assert g.divides(a) and g.divides(b)


# ---------------------------------------------------------------------------
# factorization


def test_factor_x15_minus_1_gf2():
    gf2 = field_create(2)
    fac = factor_xn_minus_1(15, gf2)
    strs = {str(g) for g, _ in fac}
    assert {"x+1", "x^2+x+1", "x^4+x+1", "x^4+x^3+x^2+x+1"} <= strs
    assert "x^4+x^3+1" in strs
    assert all(m == 1 for _, m in fac)


def test_factor_n1():
    gf2 = field_create(2)
    assert factor_xn_minus_1(1, gf2) == [(Poly.parse(gf2, "x+1"), 1)]


def test_factor_x23_minus_1_gf2():
    gf2 = field_create(2)
    fac = factor_xn_minus_1(23, gf2)
    assert sorted(g.degree for g, _ in fac) == [1, 11, 11]
    golay_gen = Poly.parse(gf2, "x^11+x^9+x^7+x^6+x^5+x+1")
    assert any(g == golay_gen for g, _ in fac)


@pytest.mark.parametrize("n", range(1, 21))
@pytest.mark.parametrize("q", [2, 3])
def test_factor_remultiplies(n, q):
    field = field_create(q)
    fac = factor_xn_minus_1(n, field)
    prod = Poly.one(field)
    for g, mult in fac:
        assert is_irreducible(g)
        for _ in range(mult):
            prod = prod * g
    assert prod == Poly.xn_minus_1(field, n)


def test_factor_with_multiplicity():
    gf2 = field_create(2)
    fac = factor_xn_minus_1(4, gf2)
    assert fac == [(Poly.parse(gf2, "x+1"), 4)]


def test_factor_extension_field():
    gf4 = field_create(2, 2)
    fac = factor_xn_minus_1(3, gf4)
    # x^3 - 1 splits into linear factors over GF(4)
    assert [g.degree for g, _ in fac] == [1, 1, 1]


# ---------------------------------------------------------------------------
# kappa


def test_kappa_binary_golay(gf2=None):
    gf2 = field_create(2)
    g = Poly.parse(gf2, "x^11+x^9+x^7+x^6+x^5+x+1")
    assert kappa(g, 23) == 11


def test_kappa_ternary_golay():
    gf3 = field_create(3)
    g = Poly.parse(gf3, "x^5+2x^3+x^2+2x+2")
    assert kappa(g, 11) == 5


def test_kappa_hamming_generator():
    # quotient is the simplex generator = the four listed factors, min deg >= 2 is 2
    gf2 = field_create(2)
    simplex_gen = Poly.parse(gf2, "x^11+x^10+x^9+x^8+x^6+x^4+x^3+1")
    h = Poly.xn_minus_1(gf2, 15) // simplex_gen
    assert kappa(h, 15) == 2
    assert kappa(simplex_gen, 15) == 4


def test_kappa_all_linear_factors_is_infinite():
    gf2 = field_create(2)
    g = Poly.xn_minus_1(gf2, 4) // Poly.parse(gf2, "x+1")
    assert kappa(g, 4) == math.inf


def test_kappa_requires_divisor():
    gf2 = field_create(2)
    with pytest.raises(ValueError):
        kappa(Poly.parse(gf2, "x^2+x+1"), 23)


# ---------------------------------------------------------------------------
# companion matrices


def test_companion_matches_printed_form():
    gf2 = field_create(2)
    b = companion_matrix(Poly.parse(gf2, "x^4+x+1"))
    assert b.rows() == [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 0, 0)]


def test_companion_degree_one():
    gf5 = field_create(5)
    b = companion_matrix(Poly.parse(gf5, "x-1"))
    assert b.rows() == [(1,)]


def test_companion_square_is_minus_identity():
    gf3 = field_create(3)
    b = companion_matrix(Poly.parse(gf3, "x^2+1"))
    # hand oracle: rows (0,1) and (-1,0); square = -I
    assert b.rows() == [(0, 1), (2, 0)]
    assert (b @ b) == -Matrix.identity(gf3, 2)


@pytest.mark.parametrize(
    "q,poly", [(2, "x^4+x+1"), (3, "x^2+1"), (2, "x^5+x^2+1"), (11, "x^2+x+7")]
)
def test_cayley_hamilton(q, poly):
    field = field_create(q)
    f = Poly.parse(field, poly)
    b = companion_matrix(f)
    assert f.eval_matrix(b).is_zero()
    assert b.is_invertible()


def test_companion_rejects_zero_constant_term():
    gf2 = field_create(2)
    with pytest.raises(ValueError, match="constant term"):
        companion_matrix(Poly.parse(gf2, "x^2+x"))
    with pytest.raises(ValueError, match="monic"):
        companion_matrix(Poly.parse(field_create(3), "2x^2+1"))


# ---------------------------------------------------------------------------
# parsing / printing


def test_parse_term_and_tuple_forms():
    gf2 = field_create(2)
    f = Poly.parse(gf2, "x^5+x^4+x^3+x+1")
    assert f == Poly.parse(gf2, "(1,1,0,1,1,1)")
    assert f.to_tuple_str() == "(1,1,0,1,1,1)"
    assert str(f) == "x^5+x^4+x^3+x+1"


def test_parse_gf11_terms_with_coefficients():
    gf11 = field_create(11)
    f = Poly.parse(gf11, "3x^6+8x^5+4x^4+x^2+7x+5")
    assert f.coeffs == (5, 7, 1, 0, 4, 8, 3)
    assert Poly.parse(gf11, str(f)) == f


def test_parse_minus_signs():
    gf3 = field_create(3)
    assert Poly.parse(gf3, "x^2-1") == Poly.from_coeffs(gf3, [-1, 0, 1])


def test_zero_and_canonical_form():
    gf2 = field_create(2)
    assert Poly.from_coeffs(gf2, [0, 0]).is_zero()
    assert Poly.parse(gf2, "0").is_zero()
    assert str(Poly.zero(gf2)) == "0"
    assert Poly.from_coeffs(gf2, [1, 1, 0]).coeffs == (1, 1)


# ---------------------------------------------------------------------------
# ring operations, checked pointwise at every field element

RING_FIELDS = [field_create(2), field_create(3), field_create(2, 2)]


@st.composite
def _poly_pairs(draw):
    f = draw(st.sampled_from(RING_FIELDS))
    coeffs = st.lists(st.integers(0, f.q - 1), max_size=6)
    a, b = (Poly.from_coeffs(f, draw(coeffs)) for _ in range(2))
    return a, b, draw(st.integers(0, f.q - 1))


@seed(20)
@given(_poly_pairs())
@settings(max_examples=150)
def test_ring_operations_agree_with_evaluation(pair):
    a, b, c = pair
    f = a.field
    zero = Poly.zero(f)
    assert (a + -a).is_zero()
    assert a - b == a + -b
    assert a.scale(c) == a * Poly.from_coeffs(f, [c])
    for x in range(f.q):
        assert (a + b)(x) == f.add(a(x), b(x))
        assert (a * b)(x) == f.mul(a(x), b(x))
        assert (-a)(x) == f.neg(a(x))
    if not a.is_zero():
        assert a.leading() == a.coeffs[-1] != 0
    with pytest.raises(ValueError):
        zero.leading()
