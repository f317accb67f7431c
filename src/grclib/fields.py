"""Exact arithmetic in finite fields GF(p^e).

Field elements are plain ints in ``[0, q)``.  For a prime field the int is
the residue mod p.  For an extension field the int packs the coefficient
vector of the residue polynomial in base p::

    a  <->  a0 + a1*x + ... + a_{e-1}*x^(e-1),   a = a0 + a1*p + ... + a_{e-1}*p^(e-1)

Keeping elements as ints makes the enumeration kernels cheap.  The
arithmetic methods also take int64 numpy arrays of such ints and work
elementwise: that is how matrices and :meth:`Field.tables` use them.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["Field", "field_create", "is_prime"]

# Fields up to this order get dense numpy add/mul tables (used by kernels).
_TABLE_LIMIT = 4096

# A field element or an int64 array of them, for the elementwise operations.
Elements = int | np.ndarray


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _modulus(p: int, e: int, given: Sequence[int] | None) -> tuple[int, ...]:
    """The ``given`` modulus of GF(p^e), checked, or when it is None the
    monic irreducible of degree e whose coefficients, read as base-p digits
    with the constant term lowest, make the smallest integer."""
    from .poly import Poly, is_irreducible  # poly imports this module

    fp = field_create(p)
    if given is not None:
        mod = Poly.from_coeffs(fp, given)
        if mod.degree != e:
            raise ValueError(f"modulus must have degree {e}")
        if not mod.is_monic():
            raise ValueError("modulus must be monic")
        if not is_irreducible(mod):
            raise ValueError("modulus is reducible over the prime field")
        return mod.coeffs
    for enc in range(p**e):
        mod = Poly.from_coeffs(fp, [enc // p**i % p for i in range(e)] + [1])
        if is_irreducible(mod):
            return mod.coeffs
    raise RuntimeError(f"no irreducible of degree {e} over GF({p})")  # unreachable


# ---------------------------------------------------------------------------


class Field:
    """Finite field of order q = p^e.  Immutable; safe to share."""

    __slots__ = ("p", "e", "q", "modulus", "_weights", "_add_table", "_mul_table")

    def __init__(self, p: int, e: int = 1, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"non-prime characteristic: {p}")
        if e < 1:
            raise ValueError(f"extension degree must be >= 1, got {e}")
        if e == 1:
            if modulus is not None:
                raise ValueError("modulus is only meaningful for extension fields")
            mod: tuple[int, ...] | None = None
        else:
            mod = _modulus(p, e, modulus)
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = mod
        self._weights = tuple(p**i for i in range(e))
        self._add_table: np.ndarray | None = None
        self._mul_table: np.ndarray | None = None

    # -- identity -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})" if self.e == 1 else f"GF({self.p}^{self.e})"

    # -- element codec ------------------------------------------------------

    def vector(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (length e) of element a."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def from_vector(self, v: Sequence[int]) -> int:
        a = 0
        for c in reversed(list(v)):
            a = a * self.p + (int(c) % self.p)
        return a

    def _canon(self, a: int) -> int:
        if self.e == 1:
            return int(a) % self.p
        if 0 <= a < self.q:
            return int(a)
        raise ValueError(f"element {a} out of range for {self}")

    def _canon_array(self, a: np.ndarray) -> np.ndarray:
        """``_canon`` of every entry of an int64 (or Python-int object) array."""
        if self.e == 1:
            return a % self.p
        if not ((0 <= a) & (a < self.q)).all():
            raise ValueError(f"element out of range for {self}")
        return a

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    # -- arithmetic on int representatives ------------------------------------
    #
    # add/sub/neg/mul take Python ints or int64 numpy arrays, elementwise with
    # broadcasting.  Extension fields work digit by digit in base p: digit i
    # of a is a // p^i % p.

    def add(self, a: Elements, b: Elements) -> Elements:
        if self.e == 1:
            return (a + b) % self.p
        out = 0
        for w in self._weights:
            out = out + (a // w + b // w) % self.p * w
        return out

    def sub(self, a: Elements, b: Elements) -> Elements:
        if self.e == 1:
            return (a - b) % self.p
        out = 0
        for w in self._weights:
            out = out + (a // w - b // w) % self.p * w
        return out

    def neg(self, a: Elements) -> Elements:
        return self.sub(0, a)

    def mul(self, a: Elements, b: Elements) -> Elements:
        if self.e == 1:
            return a * b % self.p
        p, e, mod, weights = self.p, self.e, self.modulus, self._weights
        da = [a // w % p for w in weights]
        db = [b // w % p for w in weights]
        prod = [0] * (2 * e - 1)  # schoolbook product, digits unreduced
        for i in range(e):
            for j in range(e):
                prod[i + j] = prod[i + j] + da[i] * db[j]
        # x^e = -(mod_0 + ... + mod_{e-1} x^(e-1)): fold digits down from the top
        for top in range(2 * e - 2, e - 1, -1):
            c = prod[top] % p
            for i in range(e):
                prod[top - e + i] = prod[top - e + i] - c * mod[i]
        out = 0
        for w, d in zip(weights, prod):
            out = out + d % p * w
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    # -- dense tables for the numpy kernels -----------------------------------

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(add, mul) tables of shape (q, q), dtype int16."""
        if self.q > _TABLE_LIMIT:
            raise ValueError(f"field too large for dense tables: q={self.q}")
        if self._add_table is None:
            q = self.q
            a = np.arange(q, dtype=np.int64)
            add = np.empty((q, q), dtype=np.int16)
            mul = np.empty((q, q), dtype=np.int16)
            # one call per block of about 2^16 entries (all of a field up to
            # q = 256), so that an extension field's digit arrays stay small
            step = max(1, (1 << 16) // q)
            for lo in range(0, q, step):
                rows = a[lo : lo + step, None]
                add[lo : lo + step] = self.add(rows, a)
                mul[lo : lo + step] = self.mul(rows, a)
            self._add_table = add
            self._mul_table = mul
        return self._add_table, self._mul_table


_FIELD_CACHE: dict[tuple, Field] = {}


def field_create(p: int, e: int = 1, modulus: object | None = None) -> Field:
    """Build (and cache) GF(p^e).

    ``modulus`` may be any object with ascending-order ``coeffs`` (e.g. a
    :class:`grclib.poly.Poly` over GF(p)) or a plain coefficient sequence.
    When absent and e > 1, the monic irreducible of degree e is selected
    whose coefficients, read as base-p digits with the constant term lowest,
    make the smallest integer: x^3 + x + 1 for GF(8), not x^3 + x^2 + 1.
    """
    coeffs: tuple[int, ...] | None
    if modulus is None:
        coeffs = None
    elif hasattr(modulus, "coeffs"):
        coeffs = tuple(modulus.coeffs)  # type: ignore[attr-defined]
    else:
        coeffs = tuple(modulus)  # type: ignore[arg-type]
    key = (p, e, coeffs)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, e, coeffs)
    return _FIELD_CACHE[key]
