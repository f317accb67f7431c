import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grclib.fields import field_create, is_prime


def test_prime_field_inverse():
    gf11 = field_create(11)
    assert gf11.mul(2, 6) == 1
    assert gf11.inv(2) == 6


def test_characteristic_two():
    gf2 = field_create(2)
    assert gf2.add(1, 1) == 0


def test_non_prime_characteristic_rejected():
    with pytest.raises(ValueError, match="non-prime"):
        field_create(4)
    with pytest.raises(ValueError):
        field_create(1)


def test_extension_degree_must_be_positive():
    with pytest.raises(ValueError):
        field_create(2, 0)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError, match="reducible"):
        field_create(2, 2, modulus=(1, 0, 1))


@pytest.mark.parametrize(
    "p,e,modulus,match",
    [
        (3, 3, (2, 0, 0, 1), "reducible"),  # x^3 + 2 = (x - 1)^3, derivative 0
        (3, 2, (1, 0, 2), "monic"),  # 2x^2 + 1
        (2, 3, (1, 0, 1), "degree"),
        (2, 3, (1, 1, 1, 0), "degree"),  # a trailing zero is no degree
    ],
)
def test_bad_modulus_rejected(p, e, modulus, match):
    with pytest.raises(ValueError, match=match):
        field_create(p, e, modulus=modulus)


# the default modulus has the smallest integer encoding (base-p digits,
# constant term lowest): x^3 + x + 1 for GF(8), not x^3 + x^2 + 1
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (1, 0, 1),
    (5, 2): (2, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 8): (2, 0, 1, 0, 0, 0, 0, 0, 1),
    (7, 3): (2, 0, 0, 1),
    (2, 12): (1, 0, 0, 1) + (0,) * 8 + (1,),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (2, 16): (1, 1, 0, 1, 0, 1) + (0,) * 10 + (1,),
    (13, 3): (2, 0, 0, 1),
}


@pytest.mark.parametrize("p,e", DEFAULT_MODULI)
def test_default_modulus(p, e):
    assert field_create(p, e).modulus == DEFAULT_MODULI[p, e]


def test_given_modulus_builds_its_field():
    from grclib.poly import Poly

    gf8 = field_create(2, 3, modulus=(1, 0, 1, 1))
    assert gf8.modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    # a Poly's coefficients name the same field, and the cache hands it back
    assert field_create(2, 3, Poly.from_coeffs(field_create(2), [1, 0, 1, 1])) is gf8
    assert gf8 != field_create(2, 3)  # the default GF(8) is x^3 + x + 1
    _, mul = gf8.tables()
    assert all(sorted(mul[a]) == list(range(8)) for a in range(1, 8))
    assert gf8.pow(2, 7) == 1
    assert all(gf8.pow(a, -1) == gf8.inv(a) for a in range(1, 8))
    with pytest.raises(ZeroDivisionError):
        gf8.inv(0)


def test_dense_tables_refused_for_large_fields():
    with pytest.raises(ValueError, match="too large"):
        field_create(2, 13).tables()


def test_fields_imports_first_in_a_fresh_interpreter():
    # fields imports poly inside a function, since poly imports fields
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    script = "from grclib.fields import field_create; print(field_create(2, 3).modulus)"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(1, 1, 0, 1)"


def test_gf4_arithmetic():
    gf4 = field_create(2, 2)
    assert gf4.q == 4
    # modulus defaults to x^2 + x + 1
    assert gf4.modulus == (1, 1, 1)
    for a in range(1, 4):
        assert gf4.mul(a, gf4.inv(a)) == 1
    # x * x = x + 1 under x^2 = x + 1
    x = gf4.from_vector((0, 1))
    assert gf4.vector(gf4.mul(x, x)) == (1, 1)


def test_gf9_inverses():
    gf9 = field_create(3, 2)
    for a in range(1, 9):
        assert gf9.mul(a, gf9.inv(a)) == 1


@pytest.mark.parametrize("q,args", [(2, (2,)), (3, (3,)), (11, (11,)), (9, (3, 2)), (8, (2, 3))])
def test_field_axioms_randomized(q, args):
    field = field_create(*args)
    rng = random.Random(12345 + q)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert field.add(a, field.neg(a)) == 0
        # distributivity
        lhs = field.mul(a, field.add(b, c))
        rhs = field.add(field.mul(a, b), field.mul(a, c))
        assert lhs == rhs
        if a:
            assert field.mul(a, field.inv(a)) == 1


def test_elements_and_vector_roundtrip():
    gf9 = field_create(3, 2)
    seen = set()
    for a in gf9.elements():
        v = gf9.vector(a)
        assert gf9.from_vector(v) == a
        seen.add(v)
    assert len(seen) == 9


def test_field_identity_and_hash():
    assert field_create(3) == field_create(3)
    assert field_create(3) != field_create(5)
    assert hash(field_create(2, 2)) == hash(field_create(2, 2))


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_tables_consistent():
    # tables and the elementwise array ops against the scalar ops
    for field in (field_create(3, 2), field_create(2, 2), field_create(2, 3), field_create(5, 2)):
        q = field.q
        add, mul = field.tables()
        col, row = np.arange(q, dtype=np.int64)[:, None], np.arange(q, dtype=np.int64)
        arrays = {
            "add": field.add(col, row),
            "sub": field.sub(col, row),
            "mul": field.mul(col, row),
            "neg": np.broadcast_to(field.neg(row), (q, q)),
        }
        for a in range(q):
            for b in range(q):
                assert add[a, b] == field.add(a, b)
                assert mul[a, b] == field.mul(a, b)
                assert arrays["add"][a, b] == field.add(a, b)
                assert arrays["sub"][a, b] == field.sub(a, b)
                assert arrays["mul"][a, b] == field.mul(a, b)
                assert arrays["neg"][a, b] == field.neg(b)
