"""Closed-form bounds for block-metric codes and their structured refinements.

All checkers return a :class:`BoundReport` rather than a bare boolean so the
CLI can print which bound fired and with what margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .grc import DistanceProfile, GrcCode, TypeI
from .perms import Permutation
from .poly import Poly, kappa, poly_gcd, poly_gcd_many

__all__ = [
    "BoundReport",
    "griesmer_g",
    "griesmer_gm",
    "n_points",
    "flat_count",
    "singleton_block",
    "classify_mds",
    "is_fractional_mds",
    "singleton_bsymbol",
    "qc_type1_sandwich",
    "type1_length_refinement",
    "type1_upper",
    "type1_upper_applicable",
    "shdh_tradeoff_upper",
    "levenshtein_min_channels",
    "check_cyclic_lower_bound",
    "check_qc_type2_bounds",
]


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def griesmer_g(q: int, k: int, d: int) -> int:
    """g_q(k, d) = sum_{i<k} ceil(d / q^i)."""
    if k < 1 or d < 1:
        raise ValueError("k and d must be >= 1")
    return sum(_ceil_div(d, q**i) for i in range(k))


def griesmer_gm(q: int, m: int, k: int, d_m: int) -> int:
    """Block-metric Griesmer: g_{q,m}(k, d_m) = sum_{i<k} ceil(q^(m-1) d_m / q^i)."""
    if not 1 <= m <= k:
        raise ValueError("need k >= m >= 1")
    return griesmer_g(q, k, q ** (m - 1) * d_m)


def n_points(q: int, m: int) -> int:
    """N_m = (q^m - 1)/(q - 1), the point count of PG(m-1, q)."""
    return (q**m - 1) // (q - 1)


def flat_count(q: int, k: int, m: int) -> int:
    """Number of (m-1)-flats of PG(k-1, q) (Gaussian binomial [k choose m]_q)."""
    if not 1 <= m <= k:
        raise ValueError("need k >= m >= 1")
    num = den = 1
    for i in range(m):
        num *= q ** (k - i) - 1
        den *= q ** (m - i) - 1
    return num // den


@dataclass(frozen=True)
class BoundReport:
    name: str
    inputs: tuple[tuple[str, object], ...]
    bound: object
    actual: object = None
    verdict: str = "satisfied"  # satisfied | violated | tight | not-applicable
    note: str = ""

    @classmethod
    def build(
        cls,
        name: str,
        inputs: Mapping[str, object],
        bound: object,
        actual: object = None,
        verdict: str = "satisfied",
        note: str = "",
    ) -> "BoundReport":
        return cls(name, tuple(inputs.items()), bound, actual, verdict, note)

    def csv_row(self) -> str:
        ins = ";".join(f"{k}={v}" for k, v in self.inputs)
        note = self.note.replace(",", ";")
        return f"{self.name},{ins},{self.bound},{self.actual},{self.verdict},{note}"

    CSV_HEADER = "bound,inputs,bound_value,actual,verdict,note"


# ---------------------------------------------------------------------------
# Singleton-type bounds


def singleton_block(n: int, m: int, k: int) -> Fraction:
    """Block-metric Singleton bound d_m <= n - k/m + 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return Fraction(n) - Fraction(k, m) + 1


def classify_mds(n: int, m: int, k: int, d_m: int) -> str:
    """'mds' on Singleton equality, 'fractional-mds' on the ceil variant.

    When m divides k the two equalities coincide and 'mds' is returned;
    every 'mds' code with m | k is in particular fractional MDS (see
    :func:`is_fractional_mds` for the bare equality test).
    """
    if d_m == singleton_block(n, m, k):
        return "mds"
    if is_fractional_mds(n, m, k, d_m):
        return "fractional-mds"
    return "neither"


def is_fractional_mds(n: int, m: int, k: int, d_m: int) -> bool:
    """d_m = n - ceil(k/m) + 1, the integer form of the Singleton equality."""
    return d_m == n - _ceil_div(k, m) + 1


def singleton_bsymbol(n: int, k: int, b: int) -> int:
    """b-symbol Singleton bound d_b <= n - k + b (cyclic-shift codes)."""
    return n - k + b


# ---------------------------------------------------------------------------
# Type-I refinements


def type1_length_refinement(q: int, n: int, m: int, k: int, d_m: int) -> BoundReport:
    """Strengthened length condition for non-degenerate Type-I codes.

    With s the representative of ceil(d_m / q^(k-m)) in [1, N_m] mod N_m and
    n* = n mod N_k, the plain bound n N_m >= g_{q,m}(k, d_m) tightens by
    m - s when m > s, and by 1 when s = m and m n* > N_k.  Outside those two
    cases no refinement is claimed.
    """
    if not 1 <= m <= k:
        raise ValueError("need k >= m >= 1")
    nm = n_points(q, m)
    nk = n_points(q, k)
    base = griesmer_gm(q, m, k, d_m)
    s = (_ceil_div(d_m, q ** (k - m)) - 1) % nm + 1
    n_star = n % nk
    inputs = {"q": q, "n": n, "m": m, "k": k, "d_m": d_m, "s": s, "n_star": n_star}
    if m > s:
        required = base + m - s
        case = "m>s"
    elif s == m and m * n_star > nk:
        required = base + 1
        case = "s=m"
    else:
        return BoundReport.build(
            "type1-refined-griesmer",
            inputs,
            bound=base,
            actual=n * nm,
            verdict="not-applicable",
            note="outside stated cases; plain Griesmer shown",
        )
    ok = n * nm >= required
    return BoundReport.build(
        "type1-refined-griesmer",
        inputs,
        bound=required,
        actual=n * nm,
        verdict="satisfied" if ok else "violated",
        note=f"case {case}: n*N_m >= g_qm + refinement",
    )


def type1_upper(n: int, k: int, r: int) -> int:
    """SBDH upper bound n - k + r for regular Type-I codes from full-length
    base codes whose permutation has maximum cycle length >= k (r <= m <= k)."""
    return n - k + r


def type1_upper_applicable(full_length: bool, max_cycle: int, k: int, m: int) -> bool:
    return full_length and max_cycle >= k and m <= k


def shdh_tradeoff_upper(q: int, m: int, d_m: int, d1: int) -> int:
    """Upper bound q^(m-1) d_m - (N_m - m) d_1 on the m-th sub-Hamming
    distance of a non-degenerate Type-II code."""
    return q ** (m - 1) * d_m - (n_points(q, m) - m) * d1


def qc_type1_sandwich(
    q: int, ell: int, n: int, k: int, d: int, delta: int, r: int
) -> tuple[int, int]:
    """(lower, upper) bounds on sbdh_r for regular Type-I codes repeating an
    [ell*n, k, d] quasi-cyclic base code under the block-shift permutation.

    delta counts base cofactors sharing a factor with (x^n - 1)/g(x); with
    delta = 0 the bounds are g_q(r, d) <= d_r <= ell*n - k + r, otherwise
    both sides weaken to the stated minima."""
    lo = griesmer_g(q, r, d)
    hi = ell * n - k + r
    if delta > 0:
        lo = min(lo, (ell - delta) * n)
        hi = min(hi, (ell - 1) * n)
    return lo, hi


# ---------------------------------------------------------------------------
# lower bounds gated on cyclic structure


def _meets(actual: tuple[int, ...], implied: tuple[int, ...]) -> str:
    return "satisfied" if all(a >= b for a, b in zip(actual, implied)) else "violated"


def check_cyclic_lower_bound(
    grc: GrcCode, profile: DistanceProfile, *, cap: int | None = None
) -> BoundReport:
    """The lower bound sbdh_r >= g_q(r, d) on a cyclic base code with
    generator g.  It is proved for A_j = sigma^j (j < m), or every
    A_j = sigma^-j, with sigma the cyclic shift, and m <= kappa.  Block j is
    then x^(+-j) c(x), so any r blocks combine to (sum_j lambda_j x^(+-j))
    c(x).  That multiplier, times a unit power of x, has degree below
    m <= kappa, so it shares no irreducible factor of degree >= 2 with
    h = (x^n - 1)/g.  Other permutations, other powers of sigma too, and
    m > kappa make the row not-applicable."""
    g = grc.base.cyclic_gen
    if g is None:
        raise ValueError("base code is not cyclic")
    n, m = grc.n, grc.m
    kap = kappa(g, n)
    shift = Permutation.cyclic_shift(n)
    perms = grc.variant.perms if isinstance(grc.variant, TypeI) else None
    d = grc.base.min_distance(cap=cap)
    implied = tuple(griesmer_g(grc.field.q, r, d) for r in range(1, m + 1))
    if not any(perms == tuple(shift ** (sign * j) for j in range(1, m)) for sign in (1, -1)):
        verdict, note = "not-applicable", "not a cyclic-shift construction"
    elif m > kap:
        verdict, note = "not-applicable", f"m={m} exceeds kappa={kap}"
    else:
        verdict, note = _meets(profile.sbdh, implied), ""
    return BoundReport.build(
        "cyclic-kappa-lower",
        {"n": n, "m": m, "kappa": kap, "d": d},
        implied,
        profile.sbdh,
        verdict,
        note,
    )


def check_qc_type2_bounds(
    grc: GrcCode, profile: DistanceProfile, *, cap: int | None = None
) -> BoundReport:
    """The QC Type-II bounds sbdh_r >= g_q(r, d) and shdh_r >= r d on
    (f_1 g, ..., f_m g), proved under three conditions: strictly increasing
    cofactor degrees, every cofactor coprime to (x^n - 1)/g, and joint gcd
    1.  The note names each condition that fails, and the row is then
    not-applicable."""
    if grc.qc is None:
        raise ValueError("no quasi-cyclic generators attached to this code")
    n, m = grc.n, grc.m
    g = grc.base.cyclic_gen
    xn1 = Poly.xn_minus_1(grc.field, n)
    h = xn1 // g
    cofs = [gi // g for gi in grc.qc]
    conditions = (
        (all(a.degree < b.degree for a, b in zip(cofs, cofs[1:])),
         "cofactor degrees not strictly increasing"),
        (all(not c.is_zero() and poly_gcd(c, h).degree == 0 for c in cofs),
         "cofactor shares a factor with (x^n-1)/g"),
        (poly_gcd_many(cofs + [xn1]).degree == 0, "joint gcd not 1"),
    )
    failed = [text for held, text in conditions if not held]
    d = grc.base.min_distance(cap=cap)
    sbdh = tuple(griesmer_g(grc.field.q, r, d) for r in range(1, m + 1))
    shdh = tuple(r * d for r in range(1, m + 1))
    verdict = "not-applicable" if failed else _meets(profile.sbdh + profile.shdh, sbdh + shdh)
    return BoundReport.build(
        "qc-type2-lower",
        {"n": n, "m": m, "d": d},
        (sbdh, shdh),
        (profile.sbdh, profile.shdh),
        verdict,
        "; ".join(failed),
    )


# ---------------------------------------------------------------------------
# repeated-channel count


def levenshtein_min_channels(n: int, d: int, t: int) -> int:
    """Channel count threshold for decoding t errors beyond half distance.

    Decoding needs strictly more than the returned number of independent
    channels:  sum_{i=0}^{t-ceil((d-1)/2)-1} C(n-d, i) * sum_{k=i+d-t}^{t-i} C(d, k).
    """
    half = _ceil_div(d - 1, 2)
    if t <= half:
        raise ValueError("t must exceed the classical decoding radius")
    total = 0
    for i in range(t - half):
        inner = 0
        for kk in range(max(0, i + d - t), t - i + 1):
            if kk <= d:
                inner += math.comb(d, kk)
        total += math.comb(n - d, i) * inner
    return total
