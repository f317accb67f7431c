import random

import pytest

from grclib.codes import LinearCode
from grclib.fields import field_create
from grclib.matrices import Matrix, vec_mat_mul
from grclib.perms import Permutation
from grclib.poly import Poly, factor_xn_minus_1, is_irreducible

GF2 = field_create(2)
GF3 = field_create(3)

# the 4x11 generator from the worked [(11,4),4] construction
G_11_4 = [
    [1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1],
    [0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1],
    [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
]


def test_rank_of_printed_generator():
    assert Matrix.from_rows(GF2, G_11_4).rank() == 4


def test_identity_inverse():
    eye = Matrix.identity(GF3, 4)
    assert eye.inverse() == eye


def test_all_ones_rank():
    ones = Matrix.from_rows(GF2, [[1, 1, 1]] * 3)
    assert ones.rank() == 1


def test_inverse_roundtrip():
    m = Matrix.from_rows(GF3, [[1, 2, 0], [0, 1, 1], [2, 0, 1]])
    assert m.is_invertible()
    assert m @ m.inverse() == Matrix.identity(GF3, 3)
    assert m.inverse() @ m == Matrix.identity(GF3, 3)


def test_singular_inverse_raises():
    m = Matrix.from_rows(GF2, [[1, 1], [1, 1]])
    with pytest.raises(ValueError, match="singular"):
        m.inverse()


def test_matmul_shape_mismatch():
    a = Matrix.from_rows(GF2, [[1, 0]])
    with pytest.raises(ValueError, match="mismatch"):
        a @ a


def test_rref_and_nullspace():
    m = Matrix.from_rows(GF3, [[1, 2, 1], [2, 4, 2]])
    red, pivots = m.rref()
    assert pivots == (0,)
    for v in m.nullspace():
        prod = [sum(m[i, j] * v[j] for j in range(3)) % 3 for i in range(2)]
        assert prod == [0, 0]
    assert len(m.nullspace()) == 2


def test_hjoin():
    a = Matrix.from_rows(GF2, [[1, 0], [0, 1]])
    b = Matrix.from_rows(GF2, [[1, 1], [0, 0]])
    j = Matrix.hjoin([a, b])
    assert j.rows() == [(1, 0, 1, 1), (0, 1, 0, 0)]


def test_entries_are_canonicalised_or_rejected():
    # prime fields reduce any int; extension fields reject ints outside [0, q)
    assert Matrix(GF3, 2, 2, (4, 1, 1, -1)) == Matrix.from_rows(GF3, [[1, 1], [1, 2]])
    gf4 = field_create(2, 2)
    for bad in ((0, 4), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            Matrix(gf4, 1, 2, bad)
        with pytest.raises(ValueError, match="out of range"):
            Matrix.from_rows(gf4, [bad])
    # entries past 64 bits too
    assert Matrix.from_rows(GF3, [[2**70, -(2**70)]]).rows() == [(2**70 % 3, -(2**70) % 3)]
    with pytest.raises(ValueError, match="out of range"):
        Matrix.from_rows(gf4, [[2**70]])


def test_matrix_power():
    m = Matrix.from_rows(GF3, [[0, 1], [2, 0]])
    assert m ** 2 == m @ m
    assert m ** 0 == Matrix.identity(GF3, 2)
    assert m ** -1 == m.inverse()


# ---------------------------------------------------------------------------
# permutations


def test_cycle_structure_example():
    # (1,3)(2)(4,5)
    sigma = Permutation.from_cycles(5, [(1, 3), (4, 5)])
    assert sigma.images == (3, 2, 1, 5, 4)
    assert sigma.cycle_type() == ((1, 1), (2, 2))
    assert sigma.max_cycle_length() == 2
    assert sigma.order() == 2


def test_identity_order():
    assert Permutation.identity(6).order() == 1


def test_full_cycle():
    pi = Permutation.cyclic_shift(23)
    assert pi.order() == 23
    assert pi.max_cycle_length() == 23
    assert pi.cycle_type() == ((23, 1),)


def test_vector_action_convention():
    # sigma(v)_j = v_sigma(j)
    sigma = Permutation.from_cycles(3, [(1, 2, 3)])  # 1->2->3->1
    v = (10, 20, 30)
    assert sigma.apply(v) == (20, 30, 10)


def test_as_matrix_matches_action():
    sigma = Permutation.from_cycles(4, [(1, 3), (2, 4)])
    mat = sigma.as_matrix(GF3)
    v = (1, 2, 0, 1)
    assert vec_mat_mul(v, mat) == sigma.apply(v)


def test_as_matrix_homomorphism_orientation():
    # direct 3-element test pins the orientation under sigma(v)_j = v_sigma(j):
    # as_matrix(compose(s, t)) = as_matrix(s) @ as_matrix(t), while the
    # *action* composes contravariantly: s(t(v)) = (t o s)(v).
    s = Permutation.from_cycles(3, [(1, 2)])
    t = Permutation.from_cycles(3, [(2, 3)])
    st = s.compose(t)
    assert st.as_matrix(GF2) == s.as_matrix(GF2) @ t.as_matrix(GF2)
    v = (1, 0, 1)
    assert s.apply(t.apply(v)) == t.compose(s).apply(v)
    assert vec_mat_mul(vec_mat_mul(v, t.as_matrix(GF2)), s.as_matrix(GF2)) == s.apply(
        t.apply(v)
    )


def test_inverse_and_power():
    sigma = Permutation.from_cycles(5, [(1, 2, 3, 4, 5)])
    assert sigma.compose(sigma.inverse()).is_identity()
    assert (sigma ** 5).is_identity()
    assert sigma ** -1 == sigma.inverse()
    assert (sigma ** 3) == sigma.compose(sigma).compose(sigma)


def test_invalid_images():
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_extended_shift_fixes_last():
    pi = Permutation.extended_shift(4)
    assert pi.images == (2, 3, 4, 1, 5)
    assert pi.cycle_type() == ((1, 1), (4, 1))


def test_cyclic_shift_is_polynomial_shift():
    # left cyclic shift: multiplying the coefficient vector by the shift
    # matrix moves coefficients toward lower positions
    pi = Permutation.cyclic_shift(4)
    assert pi.apply((7, 8, 9, 10)) == (8, 9, 10, 7)


# ---------------------------------------------------------------------------
# array paths against per-element loops over the scalar field ops


def _ref_matmul(f, a, b):
    out = [[0] * len(b[0]) for _ in a]
    for i, ai in enumerate(a):
        for t, bt in enumerate(b):
            for j, x in enumerate(bt):
                out[i][j] = f.add(out[i][j], f.mul(ai[t], x))
    return [tuple(r) for r in out]


def _ref_rref(f, rows):
    mat = [list(r) for r in rows]
    r = 0
    for c in range(len(mat[0])):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = f.inv(mat[r][c])
        mat[r] = [f.mul(inv, x) for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                factor = mat[i][c]
                mat[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat]


@pytest.mark.parametrize(
    "args", [(2,), (3,), (2, 2), (3, 2), (11,)], ids=["gf2", "gf3", "gf4", "gf9", "gf11"]
)
def test_matrix_ops_match_scalar_oracle(args):
    f = field_create(*args)
    rng = random.Random(f.q)

    def rand(r, c):
        return [[rng.randrange(f.q) for _ in range(c)] for _ in range(r)]

    for _ in range(12):
        r, t, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 6)
        a, b, a2 = rand(r, t), rand(t, c), rand(r, t)
        ma, mb, ma2 = (Matrix.from_rows(f, x) for x in (a, b, a2))
        assert (ma @ mb).rows() == _ref_matmul(f, a, b)
        assert (ma + ma2).rows() == [tuple(map(f.add, x, y)) for x, y in zip(a, a2)]
        assert (ma - ma2).rows() == [tuple(map(f.sub, x, y)) for x, y in zip(a, a2)]
        s = rng.randrange(f.q)
        assert ma.scale(s).rows() == [tuple(f.mul(s, x) for x in row) for row in a]
        # rank-deficient inputs too: the last row repeats a combination of two
        low = a + [[f.add(f.mul(s, x), y) for x, y in zip(a[0], a[-1])]]
        # the reduced echelon form of a row space is unique, so the oracle's must match
        red, pivots = Matrix.from_rows(f, low).rref()
        assert red.rows() == _ref_rref(f, low)
        assert all(red[i, p] == 1 for i, p in enumerate(pivots))
        square = Matrix.from_rows(f, rand(t, t))
        eye = Matrix.identity(f, t).rows()
        if square.rank() == t:
            inv = square.inverse()
            assert _ref_matmul(f, square.rows(), inv.rows()) == eye
            assert _ref_matmul(f, inv.rows(), square.rows()) == eye
        else:
            with pytest.raises(ValueError, match="singular"):
                square.inverse()


@pytest.mark.parametrize("args", [(2, 13), (4099,), (3, 8)], ids=["gf2^13", "gf4099", "gf3^8"])
def test_large_fields_build_codes_and_factor(args):
    f = field_create(*args)
    rng = random.Random(5)
    rows = [[rng.randrange(f.q) for _ in range(6)] for _ in range(3)]
    code = LinearCode.from_rows(f, rows)
    message = (1, f.q - 1, 2)
    assert code.encode(message) == _ref_matmul(f, [message], rows)[0]
    factors = factor_xn_minus_1(5, f)
    product = Poly.one(f)
    for g, mult in factors:
        assert is_irreducible(g)
        for _ in range(mult):
            product = product * g
    assert product == Poly.xn_minus_1(f, 5)
