"""Generalized repetition codes.

A GRC juxtaposes m transformed copies of a base [n, k]_q code: Type-I
applies column permutations (G, G A_1, ..., G A_{m-1}), Type-II applies
invertible message transforms (G, B_1 G, ..., B_{m-1} G).  Quasi-cyclic
single-row constructions (a(x) -> (a g_1, ..., a g_m) mod x^n - 1) are
recognized and tagged with the variant they realize.

The distance profile (SBDH / SHDH) is computed in one enumeration pass
that maintains block and Hamming minima for all 2^m - 1 block subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .bounds import griesmer_g
from .codes import LinearCode, _read_code_text
from .fields import Field
from .matrices import Matrix
from .perms import Permutation
from .poly import Poly, kappa, poly_gcd, poly_gcd_many

__all__ = [
    "TypeI",
    "TypeII",
    "QcStructure",
    "GrcCode",
    "DistanceProfile",
    "type1",
    "type1_regular",
    "type2",
    "type2_general",
    "from_qc_generators",
    "as_blocked",
    "grc_to_text",
    "grc_from_text",
    "distance_profile",
    "degeneracy_and_regularity",
    "StructureReport",
    "check_cyclic_lower_bound",
    "CyclicLowerBoundReport",
    "check_qc_type2_bounds",
    "QcType2Report",
]


@dataclass(frozen=True)
class TypeI:
    perms: tuple[Permutation, ...]  # A_1 .. A_{m-1}


@dataclass(frozen=True)
class TypeII:
    transforms: tuple[Matrix, ...]  # B_1 .. B_{m-1}


@dataclass(frozen=True)
class QcStructure:
    n: int
    g: Poly  # gcd(generators..., x^n - 1), monic
    generators: tuple[Poly, ...]  # block generators reduced mod x^n - 1
    cofactors: tuple[Poly, ...]  # generators[i] / g


@dataclass(frozen=True)
class GrcCode:
    base: LinearCode
    m: int
    gen: Matrix  # k x (m n) full generator
    variant: TypeI | TypeII | None
    qc: QcStructure | None = None

    @property
    def field(self) -> Field:
        return self.base.field

    @property
    def n(self) -> int:
        """Block length."""
        return self.base.n

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def dim(self) -> int:
        """Dimension of the full blocked code (= k for all constructors)."""
        return self.gen.nrows

    def full_code(self) -> LinearCode:
        return LinearCode(self.field, self.gen.ncols, self.gen.nrows, self.gen)

    def block_matrix(self, i: int) -> Matrix:
        """Generator columns of 1-based block i."""
        n = self.n
        rows = [r[(i - 1) * n : i * n] for r in self.gen.rows()]
        return Matrix.from_rows(self.field, rows)

    def __repr__(self) -> str:
        tag = (
            "type1"
            if isinstance(self.variant, TypeI)
            else "type2"
            if isinstance(self.variant, TypeII)
            else "blocked"
        )
        return f"GrcCode[({self.n},{self.m}),{self.k}]_{self.field.q}:{tag}"


# ---------------------------------------------------------------------------
# constructors


def type1(base: LinearCode, perms: Sequence[Permutation]) -> GrcCode:
    """Type-I GRC (G, G A_1, ..., G A_{m-1}) from explicit permutations."""
    perms = tuple(perms)
    for p in perms:
        if p.size != base.n:
            raise ValueError("permutation size does not match code length")
    rows = []
    for r in base.gen.rows():
        out = list(r)
        for p in perms:
            out.extend(p.apply(r))
        rows.append(out)
    gen = Matrix.from_rows(base.field, rows)
    return GrcCode(base, len(perms) + 1, gen, TypeI(perms))


def type1_regular(base: LinearCode, sigma: Permutation, m: int) -> GrcCode:
    """Regular Type-I GRC with A_i = A^i for A the matrix of sigma."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if sigma.size != base.n:
        raise ValueError("permutation size does not match code length")
    perms = []
    cur = sigma
    for _ in range(m - 1):
        perms.append(cur)
        cur = cur.compose(sigma)
    return type1(base, perms)


def type2(base: LinearCode, b: Matrix, m: int) -> GrcCode:
    """Regular Type-II GRC (G, BG, ..., B^(m-1)G)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if b.nrows != base.k or b.ncols != base.k:
        raise ValueError("transform must be k x k")
    if not b.is_invertible():
        raise ValueError("transform matrix is singular")
    transforms = []
    cur = b
    for _ in range(m - 1):
        transforms.append(cur)
        cur = cur @ b
    return type2_general(base, transforms)


def type2_general(base: LinearCode, transforms: Sequence[Matrix]) -> GrcCode:
    transforms = tuple(transforms)
    blocks = [base.gen]
    for b in transforms:
        if not b.is_invertible():
            raise ValueError("transform matrix is singular")
        blocks.append(b @ base.gen)
    gen = Matrix.hjoin(blocks)
    return GrcCode(base, len(transforms) + 1, gen, TypeII(transforms))


def _mult_mod_matrix(f: Poly, h: Poly) -> Matrix:
    """Matrix of multiplication by f on F_q[x]/(h), basis 1, x, ..., x^(k-1)."""
    k = h.degree
    rows = []
    for i in range(k):
        r = (Poly.monomial(f.field, i) * f) % h
        rows.append([r.coeff(j) for j in range(k)])
    return Matrix.from_rows(f.field, rows)


def from_qc_generators(n: int, gens: Sequence[Poly]) -> GrcCode:
    """Quasi-cyclic blocked code generated by a(x) (a g_1, ..., a g_m).

    The dimension is derived as n - deg(gcd(g_1, ..., g_m, x^n - 1)), never
    trusted from the caller.  The base code is the cyclic code of the gcd;
    when every cofactor g_i / gcd is a monomial the result is tagged Type-I
    (cyclic shifts), and when every cofactor is invertible mod (x^n-1)/gcd
    it is tagged Type-II with the relative multiplication transforms.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator polynomial")
    field = gens[0].field
    xn1 = Poly.xn_minus_1(field, n)
    gens = [g % xn1 for g in gens]
    if all(g.is_zero() for g in gens):
        raise ValueError("all generators are zero")
    g = poly_gcd_many(gens + [xn1])
    k = n - g.degree
    if k < 1:
        raise ValueError("generators span the zero code")
    cofactors = tuple((gi // g) for gi in gens)
    m = len(gens)

    # x^i g_j mod x^n - 1 is the coefficient vector of g_j rotated right by i
    vecs = [[gi.coeff(j) for j in range(n)] for gi in gens]
    rows = [[c for v in vecs for c in v[n - i :] + v[: n - i]] for i in range(k)]
    gen = Matrix.from_rows(field, rows)

    base = LinearCode.cyclic(field, n, g)
    h = xn1 // g
    variant: TypeI | TypeII | None = None
    if all(_is_monomial(c) for c in cofactors):
        shift = Permutation.cyclic_shift(n)
        t0 = cofactors[0].degree
        perms = tuple(
            shift ** (-((c.degree - t0) % n)) for c in cofactors[1:]
        )
        variant = TypeI(perms)
    elif all(poly_gcd(c, h).degree == 0 for c in cofactors if not c.is_zero()) and not any(
        c.is_zero() for c in cofactors
    ):
        m1 = _mult_mod_matrix(cofactors[0] % h, h)
        m1_inv = m1.inverse()
        transforms = tuple(
            m1_inv @ _mult_mod_matrix(c % h, h) for c in cofactors[1:]
        )
        variant = TypeII(transforms)
    qc = QcStructure(n, g, tuple(gens), cofactors)
    return GrcCode(base, m, gen, variant, qc)


def _is_monomial(f: Poly) -> bool:
    return not f.is_zero() and f.coeffs.count(0) == f.degree and f.leading() == 1


def as_blocked(code: LinearCode, m: int) -> GrcCode:
    """Wrap a plain [m*n, k] code as a blocked code with no variant tag."""
    if code.n % m:
        raise ValueError(f"length {code.n} not divisible by block count {m}")
    base = LinearCode.span(code.field, code.sub_block_projection(m, [1]))
    return GrcCode(base, m, code.gen, None)


# ---------------------------------------------------------------------------
# distance profile


@dataclass(frozen=True)
class DistanceProfile:
    """SBDH/SHDH plus the per-subset distance table.

    ``per_subset`` maps each nonempty 1-based block subset T to the pair
    (block distance, Hamming distance) of the sub-block code C^T; None
    marks a subset whose projection is identically zero.
    """

    m: int
    sbdh: tuple[int, ...]
    shdh: tuple[int, ...]
    per_subset: tuple[tuple[tuple[int, ...], int | None, int | None], ...]

    def subset_table(self) -> dict[tuple[int, ...], tuple[int | None, int | None]]:
        return {t: (b, h) for t, b, h in self.per_subset}

    def __str__(self) -> str:
        return (
            "SBDH " + " ".join(map(str, self.sbdh)) + " / SHDH " + " ".join(map(str, self.shdh))
        )


def distance_profile(grc: GrcCode, *, cap: int | None = None) -> DistanceProfile:
    """Exact SBDH and SHDH by a single pass over all q^k codewords."""
    block_min, ham_min = kernels.subset_minima(
        grc.field, grc.gen.rows(), grc.m, cap=cap
    )
    inf = np.iinfo(np.int64).max
    m = grc.m
    per_subset = []
    sbdh: list[int] = []
    shdh: list[int] = []
    best_block = [inf] * (m + 1)
    best_ham = [inf] * (m + 1)
    for t in range(1, 1 << m):
        members = tuple(i + 1 for i in range(m) if t >> i & 1)
        r = len(members)
        b = int(block_min[t])
        h = int(ham_min[t])
        per_subset.append((members, None if b == inf else b, None if h == inf else h))
        best_block[r] = min(best_block[r], b)
        best_ham[r] = min(best_ham[r], h)
    for r in range(1, m + 1):
        if best_block[r] == inf:
            raise ValueError(f"every size-{r} projection is zero; profile undefined")
        sbdh.append(best_block[r])
        shdh.append(best_ham[r])
    per_subset.sort(key=lambda rec: (len(rec[0]), rec[0]))
    return DistanceProfile(m, tuple(sbdh), tuple(shdh), tuple(per_subset))


# ---------------------------------------------------------------------------
# structure predicates


@dataclass(frozen=True)
class StructureReport:
    regular: bool
    non_degenerate: bool


def degeneracy_and_regularity(grc: GrcCode) -> StructureReport:
    """Regularity (A_i = A_1^i) and linear independence of {I, A_1, ...}."""
    if isinstance(grc.variant, TypeI):
        mats = [p.as_matrix(grc.field) for p in grc.variant.perms]
        size = grc.n
    elif isinstance(grc.variant, TypeII):
        mats = list(grc.variant.transforms)
        size = grc.k
    else:
        raise ValueError("no Type-I/Type-II structure attached to this code")
    regular = True
    if mats:
        power = mats[0]
        for a in mats[1:]:
            power = power @ mats[0]
            if a != power:
                regular = False
                break
    flat = [Matrix.identity(grc.field, size).flatten()] + [a.flatten() for a in mats]
    rank = Matrix.from_rows(grc.field, flat).rank()
    return StructureReport(regular=regular, non_degenerate=rank == len(flat))


@dataclass(frozen=True)
class CyclicLowerBoundReport:
    """kappa-gate for the cyclic Type-I lower bound sbdh_r >= g_q(r, d)."""

    n: int
    m: int
    kappa_value: float
    satisfied: bool
    base_distance: int
    implied_sbdh_lower: tuple[int, ...]


def check_cyclic_lower_bound(grc: GrcCode, *, cap: int | None = None) -> CyclicLowerBoundReport:
    g = grc.base.cyclic_gen
    if g is None:
        raise ValueError("base code has no cyclic generator attached")
    kap = kappa(g, grc.n)
    d = grc.base.min_distance(cap=cap)
    q = grc.field.q
    implied = tuple(griesmer_g(q, r, d) for r in range(1, grc.m + 1))
    return CyclicLowerBoundReport(
        n=grc.n,
        m=grc.m,
        kappa_value=kap,
        satisfied=grc.m <= kap,
        base_distance=d,
        implied_sbdh_lower=implied,
    )


@dataclass(frozen=True)
class QcType2Report:
    """Preconditions and implied bounds for single-row QC Type-II codes."""

    n: int
    g: Poly
    cofactors: tuple[Poly, ...]
    degrees_increasing: bool
    cofactor_coprime: tuple[bool, ...]
    joint_gcd_one: bool
    satisfied: bool
    base_distance: int
    implied_sbdh_lower: tuple[int, ...]
    implied_shdh_lower: tuple[int, ...]


def check_qc_type2_bounds(
    n: int, gens: Sequence[Poly], *, cap: int | None = None
) -> QcType2Report:
    """Check the QC Type-II sufficient conditions on (f_1 g, ..., f_m g):
    strictly increasing cofactor degrees and every cofactor coprime to
    (x^n - 1)/g; when they hold, sbdh_r >= g_q(r, d) and shdh_r >= r d."""
    grc = from_qc_generators(n, gens)
    qc = grc.qc
    assert qc is not None
    field = grc.field
    h = Poly.xn_minus_1(field, n) // qc.g
    cofs = qc.cofactors
    degrees_increasing = all(
        cofs[i].degree < cofs[i + 1].degree for i in range(len(cofs) - 1)
    )
    coprime = tuple(
        (not c.is_zero()) and poly_gcd(c, h).degree == 0 for c in cofs
    )
    joint = poly_gcd_many(list(cofs) + [Poly.xn_minus_1(field, n)]).degree == 0
    d = grc.base.min_distance(cap=cap)
    q = field.q
    implied_sbdh = tuple(griesmer_g(q, r, d) for r in range(1, grc.m + 1))
    implied_shdh = tuple(r * d for r in range(1, grc.m + 1))
    return QcType2Report(
        n=n,
        g=qc.g,
        cofactors=cofs,
        degrees_increasing=degrees_increasing,
        cofactor_coprime=coprime,
        joint_gcd_one=joint,
        satisfied=degrees_increasing and all(coprime) and joint,
        base_distance=d,
        implied_sbdh_lower=implied_sbdh,
        implied_shdh_lower=implied_shdh,
    )


# ---------------------------------------------------------------------------
# serialization


def grc_to_text(grc: GrcCode) -> str:
    lines = [f"{grc.field.q} {grc.gen.ncols} {grc.k} {grc.m}"]
    for r in grc.gen.rows():
        lines.append(" ".join(str(x) for x in r))
    if isinstance(grc.variant, TypeI):
        lines.append("variant type1")
        for p in grc.variant.perms:
            lines.append("perm " + " ".join(str(i) for i in p.images))
    elif isinstance(grc.variant, TypeII):
        lines.append("variant type2")
        for b in grc.variant.transforms:
            lines.append("transform " + " ".join(str(x) for x in b.flatten()))
    else:
        lines.append("variant none")
    if grc.qc is not None:
        lines.append(f"qc-n {grc.qc.n}")
        for gi in grc.qc.generators:
            lines.append("qc-gen " + gi.to_tuple_str())
    return "\n".join(lines) + "\n"


def grc_from_text(text: str) -> GrcCode:
    (_, total_n, k, m), field, rows, lines = _read_code_text(text, "GRC", "q n k m", (4,))
    gen = Matrix.from_rows(field, rows)
    tag = lines[0].split() if lines else []
    if tag[:1] != ["variant"] or len(tag) < 2:
        raise ValueError("missing variant line 'variant type1|type2|none'")
    variant_name = tag[1]
    lines = lines[1:]
    qc_lines = [ln for ln in lines if ln.startswith("qc-")]
    if qc_lines:
        n = int(qc_lines[0].split()[1])
        gens = [Poly.parse(field, ln.split(None, 1)[1]) for ln in qc_lines[1:]]
        rebuilt = from_qc_generators(n, gens)
        if rebuilt.gen != gen:
            raise ValueError("stored generator disagrees with QC reconstruction")
        return rebuilt
    n = total_n // m
    block1 = Matrix.from_rows(field, [r[:n] for r in rows])
    if variant_name == "type1":
        base = LinearCode(field, n, k, block1)
        perms = [
            Permutation(tuple(int(x) for x in ln.split()[1:]))
            for ln in lines
            if ln.startswith("perm ")
        ]
        rebuilt = type1(base, perms)
    elif variant_name == "type2":
        base = LinearCode(field, n, k, block1)
        transforms = []
        for ln in lines:
            if not ln.startswith("transform "):
                continue
            vals = [int(x) for x in ln.split()[1:]]
            transforms.append(Matrix(field, k, k, tuple(vals)))
        rebuilt = type2_general(base, transforms)
    else:
        rebuilt = GrcCode(LinearCode.span(field, block1), m, gen, None)
    if rebuilt.gen != gen:
        raise ValueError("stored generator disagrees with variant reconstruction")
    return rebuilt
