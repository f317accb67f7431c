"""Univariate polynomials over a finite field.

Coefficients are stored ascending (index = degree) with no trailing zeros;
the zero polynomial has an empty coefficient tuple.  Polynomials print and
parse in two interchangeable forms::

    x^5+x^4+x^3+x+1          term form
    (1,1,0,1,1,1)            ascending coefficient tuple

Also home to the x^n - 1 factorization machinery (Berlekamp on the
square-free part) and the kappa statistic of a cyclic generator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import Field
from .matrices import Matrix

__all__ = [
    "Poly",
    "poly_mul_mod",
    "poly_gcd",
    "factor_xn_minus_1",
    "kappa",
    "companion_matrix",
    "is_irreducible",
]


@dataclass(frozen=True)
class Poly:
    field: Field
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficients are not in canonical form")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_coeffs(cls, field: Field, coeffs: Iterable[int]) -> "Poly":
        c = list(map(field._canon, coeffs))
        while c and c[-1] == 0:
            c.pop()
        return cls(field, tuple(c))

    @classmethod
    def zero(cls, field: Field) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field: Field, degree: int) -> "Poly":
        return cls(field, (0,) * degree + (1,))

    @classmethod
    def xn_minus_1(cls, field: Field, n: int) -> "Poly":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls.from_coeffs(field, [field.neg(1)] + [0] * (n - 1) + [1])

    @classmethod
    def parse(cls, field: Field, text: str) -> "Poly":
        return _from_terms(field, _parse_terms(field, text))

    @classmethod
    def parse_below(cls, field: Field, text: str, bound: int) -> "Poly":
        """``parse(field, text)``, refused when its degree is ``bound`` or
        more.  The degree is read off the terms, so a huge exponent is
        refused before any coefficient list is built."""
        terms = _parse_terms(field, text)
        degree = _degree(terms)
        if degree >= bound:
            raise ValueError(f"polynomial degree {degree} too large: must be below {bound}")
        return _from_terms(field, terms)

    @classmethod
    def parse_mod_xn(cls, field: Field, text: str, n: int) -> "Poly":
        """``parse(field, text) % (x^n - 1)``, each exponent reduced mod n as
        its term is read, so that no coefficient list grows past n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        folded: dict[int, int] = {}
        for d, c in _parse_terms(field, text).items():
            folded[d % n] = field.add(folded.get(d % n, 0), c)
        return _from_terms(field, folded)

    # -- basics ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        inv = self.field.inv(lead)
        return Poly.from_coeffs(self.field, [self.field.mul(inv, c) for c in self.coeffs])

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_coeffs(f, [f.add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.from_coeffs(f, [f.sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly.from_coeffs(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        f = self.field
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Poly.from_coeffs(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        return Poly.from_coeffs(f, [f.mul(c, a) for a in self.coeffs])

    def shift(self, j: int) -> "Poly":
        """Multiply by x^j."""
        if self.is_zero() or j == 0:
            return self
        return Poly(self.field, (0,) * j + self.coeffs)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dd = other.degree
        inv_lead = f.inv(other.coeffs[-1])
        quo = [0] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd:
            shift = len(rem) - 1 - dd
            factor = f.mul(rem[-1], inv_lead)
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                if c:
                    rem[shift + i] = f.sub(rem[shift + i], f.mul(factor, c))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly.from_coeffs(f, quo), Poly.from_coeffs(f, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero()

    def pow_mod(self, n: int, modulus: "Poly") -> "Poly":
        out = Poly.one(self.field) % modulus
        base = self % modulus
        while n:
            if n & 1:
                out = (out * base) % modulus
            base = (base * base) % modulus
            n >>= 1
        return out

    def __call__(self, a: int) -> int:
        f = self.field
        out = 0
        for c in reversed(self.coeffs):
            out = f.add(f.mul(out, a), c)
        return out

    def eval_matrix(self, m: Matrix) -> Matrix:
        """Evaluate the polynomial at a square matrix."""
        out = Matrix.zeros(m.field, m.nrows, m.ncols)
        power = Matrix.identity(m.field, m.nrows)
        for i, c in enumerate(self.coeffs):
            if c:
                out = out + power.scale(c)
            if i < len(self.coeffs) - 1:
                power = power @ m
        return out

    # -- text forms -------------------------------------------------------------

    def to_tuple_str(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("x" if c == 1 else f"{c}x")
            else:
                terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
        return "+".join(terms)

    def __repr__(self) -> str:
        return f"Poly({self.field!r}, {self})"


_TERM_RE = re.compile(r"^(\d*)(x(?:\^(\d+))?)?$")


def _degree(terms: dict[int, int]) -> int:
    """The largest exponent of ``terms`` with a nonzero coefficient, -1 if none."""
    return max((d for d, c in terms.items() if c), default=-1)


def _from_terms(field: Field, terms: dict[int, int]) -> Poly:
    """The polynomial with coefficient c at each exponent d of ``terms``."""
    coeffs = [0] * (_degree(terms) + 1)
    for d, c in terms.items():
        if c:
            coeffs[d] = c
    return Poly.from_coeffs(field, coeffs)


def _parse_terms(field: Field, text: str) -> dict[int, int]:
    """The coefficient of each exponent that ``text`` names, in either form."""
    s = text.strip()
    if s.startswith("("):
        body = s.strip("() \t")
        return {i: field._canon(int(t)) for i, t in enumerate(body.split(","))} if body else {}
    s = s.replace(" ", "").replace("−", "-")
    if not s:
        raise ValueError("empty polynomial string")
    # normalize leading sign, then split into signed terms
    if s[0] not in "+-":
        s = "+" + s
    coeffs: dict[int, int] = {}
    for sign, term in re.findall(r"([+-])([^+-]+)", s):
        m = _TERM_RE.match(term)
        if not m or (not m.group(1) and not m.group(2)):
            raise ValueError(f"cannot parse term {term!r}")
        c = int(m.group(1)) if m.group(1) else 1
        if m.group(2) is None:
            deg = 0
        elif m.group(3) is None:
            deg = 1
        else:
            deg = int(m.group(3))
        c = field._canon(c)
        if sign == "-":
            c = field.neg(c)
        coeffs[deg] = field.add(coeffs.get(deg, 0), c)
    if not coeffs:
        raise ValueError(f"cannot parse polynomial {text!r}")
    return coeffs


# ---------------------------------------------------------------------------
# spec'd operations


def poly_mul_mod(a: Poly, b: Poly, modulus: Poly) -> Poly:
    if a.field != b.field or a.field != modulus.field:
        raise ValueError("field mismatch")
    if modulus.is_zero():
        raise ZeroDivisionError("zero modulus")
    return (a * b) % modulus


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_gcd_many(polys: Sequence[Poly]) -> Poly:
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        raise ValueError("gcd of all-zero inputs")
    out = nonzero[0]
    for p in nonzero[1:]:
        out = poly_gcd(out, p)
    return out.monic()


def is_irreducible(f: Poly) -> bool:
    if f.degree < 1:
        return False
    if f.degree == 1:
        return True
    sqfree = poly_gcd(f, _derivative(f)).degree == 0
    if not sqfree:
        return False
    return len(_berlekamp_nullspace(f.monic())) == 1


def _derivative(f: Poly) -> Poly:
    fld = f.field
    # i * c means repeated addition: the scalar i lives in the prime subfield
    return Poly.from_coeffs(
        fld, [fld.mul(i % fld.p, c) for i, c in enumerate(f.coeffs[1:], start=1)]
    )


def _berlekamp_nullspace(f: Poly) -> list[tuple[int, ...]]:
    """Basis of the Berlekamp subalgebra {v : v^q = v mod f} for square-free monic f."""
    fld = f.field
    k = f.degree
    xq = Poly.x(fld).pow_mod(fld.q, f)
    rows = []
    power = Poly.one(fld)
    for i in range(k):
        row = [power.coeff(j) for j in range(k)]
        row[i] = fld.sub(row[i], 1)
        rows.append(row)
        if i < k - 1:
            power = (power * xq) % f
    # v * (Q - I) = 0  <=>  (Q - I)^T v^T = 0
    mat = Matrix.from_rows(fld, rows).transpose()
    return mat.nullspace()


def _berlekamp_factor(f: Poly) -> list[Poly]:
    """Irreducible factors of a square-free monic polynomial.

    An element v of the Berlekamp subalgebra is a constant of GF(q) modulo
    each irreducible factor, so its trace Tr(v) = v + v^p + ... +
    v^(p^(e-1)) mod f is a constant of the prime field GF(p) modulo each,
    and f is the product of gcd(f, Tr(v) - t) over the p elements t.  A
    non-constant v differs modulo two factors, and the trace form is
    nondegenerate, so Tr(c v) differs there for some c of the basis
    1, x, ..., x^(e-1) of GF(q) over GF(p): at most e p gcds split f.
    """
    fld = f.field
    if f.degree <= 1:
        return [f]
    basis = _berlekamp_nullspace(f)
    if len(basis) == 1:
        return [f]
    v = next(Poly.from_coeffs(fld, b) for b in basis if Poly.from_coeffs(fld, b).degree >= 1)
    for c in (fld.p**a for a in range(fld.e)):  # 1, x, ..., x^(e-1)
        term = trace = v.scale(c)
        for _ in range(fld.e - 1):
            term = term.pow_mod(fld.p, f)
            trace = trace + term
        pieces = [poly_gcd(f, trace - Poly.from_coeffs(fld, [t])) for t in range(fld.p)]
        pieces = [g for g in pieces if g.degree > 0]
        if len(pieces) > 1:
            break
    return [factor for piece in pieces for factor in _berlekamp_factor(piece)]


def factor_xn_minus_1(n: int, field: Field) -> list[tuple[Poly, int]]:
    """Complete factorization of x^n - 1 into monic irreducibles.

    Writes n = n0 * p^a with gcd(n0, p) = 1, so x^n - 1 = (x^n0 - 1)^(p^a)
    with a square-free base handled by Berlekamp splitting.  The result is
    sorted by (degree, coefficients) and verified by re-multiplication.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p = field.p
    mult = 1
    n0 = n
    while n0 % p == 0:
        n0 //= p
        mult *= p
    base = Poly.xn_minus_1(field, n0)
    factors = sorted(
        (g.monic() for g in _berlekamp_factor(base)),
        key=lambda g: (g.degree, g.coeffs),
    )
    result = [(g, mult) for g in factors]
    check = Poly.one(field)
    for g, m in result:
        for _ in range(m):
            check = check * g
    if check != Poly.xn_minus_1(field, n):
        raise AssertionError("factorization failed re-multiplication check")
    return result


def kappa(g: Poly, n: int) -> float | int:
    """min{deg(h_i) >= 2} over the irreducible factors of (x^n - 1)/g(x).

    Returns math.inf when every factor of the quotient is linear.
    """
    xn1 = Poly.xn_minus_1(g.field, n)
    if not g.divides(xn1):
        raise ValueError("g(x) does not divide x^n - 1")
    h = xn1 // g
    degs = []
    rest = h.monic()
    for factor, m in factor_xn_minus_1(n, g.field):
        for _ in range(m):
            if factor.divides(rest):
                rest = rest // factor
                degs.append(factor.degree)
    if rest.degree != 0:
        raise AssertionError("quotient not exhausted by x^n - 1 factors")
    big = [d for d in degs if d >= 2]
    return min(big) if big else math.inf


def companion_matrix(f: Poly) -> Matrix:
    """Companion matrix of a monic polynomial with nonzero constant term.

    Row i (i < k-1) is the (i+1)-th standard basis row; the last row holds
    the negated coefficients, so the characteristic polynomial is f and the
    matrix is invertible.
    """
    if not f.is_monic():
        raise ValueError("companion matrix requires a monic polynomial")
    k = f.degree
    if k < 1:
        raise ValueError("degree must be >= 1")
    if f.coeff(0) == 0:
        raise ValueError("zero constant term: companion matrix would be singular")
    fld = f.field
    rows = []
    for i in range(k - 1):
        row = [0] * k
        row[i + 1] = 1
        rows.append(row)
    rows.append([fld.neg(f.coeff(j)) for j in range(k)])
    return Matrix.from_rows(fld, rows)
