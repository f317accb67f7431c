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

import threading
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import kernels
from .codes import LinearCode, _circulant_rows, _read_code_text
from .fields import Field
from .matrices import Matrix
from .perms import Permutation
from .poly import Poly, poly_gcd_many
# not called here: the catalog benchmark's tracer patches this name in this module
from .poly import poly_gcd  # noqa: F401

if TYPE_CHECKING:
    from .decoding import GrcDecoder

__all__ = [
    "TypeI",
    "TypeII",
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
]


@dataclass(frozen=True)
class TypeI:
    perms: tuple[Permutation, ...]  # A_1 .. A_{m-1}


@dataclass(frozen=True)
class TypeII:
    transforms: tuple[Matrix, ...]  # B_1 .. B_{m-1}


_DECODER_LOCK = threading.Lock()


@dataclass(frozen=True)
class GrcCode:
    base: LinearCode
    m: int
    gen: Matrix  # k x (m n) full generator
    variant: TypeI | TypeII | None
    qc: tuple[Poly, ...] | None = None  # QC block generators, reduced mod x^n - 1

    @property
    def field(self) -> Field:
        return self.base.field

    @property
    def n(self) -> int:
        """Block length."""
        return self.base.n

    @property
    def k(self) -> int:
        """Dimension of the base code, block 1."""
        return self.base.k

    @property
    def dim(self) -> int:
        """Dimension of the full blocked code: ``k`` for every constructor
        but ``as_blocked``, whose block 1 may span less."""
        return self.gen.nrows

    def full_code(self) -> LinearCode:
        return LinearCode(self.field, self.gen.ncols, self.gen.nrows, self.gen)

    @cached_property
    def decoder(self) -> GrcDecoder:
        """The code's decoder, built on first use and kept with the code
        (not a field: equality, hash and repr do not see it), so that every
        simulation of the code shares its codeword and coset-leader tables."""
        from .decoding import GrcDecoder  # decoding imports this module

        with _DECODER_LOCK:  # one build, also where cached_property has no lock
            if "decoder" not in self.__dict__:
                self.__dict__["decoder"] = GrcDecoder(self)
            return self.__dict__["decoder"]

    def block_matrix(self, i: int) -> Matrix:
        """Generator columns of 1-based block i."""
        n = self.n
        return Matrix(self.field, self.dim, n, self.gen.data[:, (i - 1) * n : i * n])

    def __repr__(self) -> str:
        tag = (
            "type1"
            if isinstance(self.variant, TypeI)
            else "type2"
            if isinstance(self.variant, TypeII)
            else "blocked"
        )
        return f"GrcCode[({self.n},{self.m}),{self.dim}]_{self.field.q}:{tag}"


# ---------------------------------------------------------------------------
# constructors


def type1(base: LinearCode, perms: Sequence[Permutation]) -> GrcCode:
    """Type-I GRC (G, G A_1, ..., G A_{m-1}) from explicit permutations."""
    perms = tuple(perms)
    for p in perms:
        if p.size != base.n:
            raise ValueError("permutation size does not match code length")
    g = base.gen.data
    gen = np.hstack([g] + [g[:, np.subtract(p.images, 1)] for p in perms])
    gen = Matrix(base.field, base.k, gen.shape[1], gen)
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


def from_qc_generators(n: int, gens: Sequence[Poly]) -> GrcCode:
    """Quasi-cyclic blocked code generated by a(x) (a g_1, ..., a g_m).

    The dimension is derived as n - deg(gcd(g_1, ..., g_m, x^n - 1)), never
    trusted from the caller.  The base code is the cyclic code of the gcd g.
    The variant is read off the generator matrix, whose block j has rows
    x^i g_j: when every block's row 0 is x^s g_1, the least such s gives
    A_j = shift^-s and the code is tagged Type-I.  Otherwise block j's rows
    are M(f_j) C, with f_j = g_j / g, M(f_j) multiplication by f_j on
    F_q[x]/(h), h = (x^n - 1)/g, and C the rows x^s g for s < k.  C's first
    k columns are upper triangular with diagonal g(0) != 0, so block j's
    k x k head is invertible exactly when f_j is a unit mod h.  When every
    head is, the code is tagged Type-II with B_j = head_j head_1^-1 =
    M(f_1)^-1 M(f_j), as multiplications mod h commute.
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
    m = len(gens)
    gen = Matrix(field, k, m * n, np.hstack([_circulant_rows(gi, n, k) for gi in gens]))
    # g divides x^n - 1, and its rows' staggered leads skip the rank check
    base = LinearCode(field, n, k, Matrix(field, k, n, _circulant_rows(g, n, k)))
    variant: TypeI | TypeII | None = None
    # shifts[j, s]: block j's row 0 is x^s g_1 mod x^n - 1
    shifts = (gen.data[0].reshape(m, 1, n) == _circulant_rows(gens[0], n, n)).all(axis=2)
    if shifts.any(axis=1).all():
        shift = Permutation.cyclic_shift(n)
        variant = TypeI(tuple(shift ** -int(s) for s in shifts[1:].argmax(axis=1)))
    else:
        heads = [Matrix(field, k, k, gen.data[:, j * n : j * n + k]) for j in range(m)]
        if all(head.is_invertible() for head in heads):
            inv = heads[0].inverse()
            variant = TypeII(tuple(head @ inv for head in heads[1:]))
    return GrcCode(base, m, gen, variant, tuple(gens))


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
    sbdh, shdh = kernels.hierarchies(block_min, ham_min)
    inf = np.iinfo(np.int64).max
    per_subset = []
    for t in range(1, 1 << grc.m):
        members = tuple(i + 1 for i in range(grc.m) if t >> i & 1)
        b, h = int(block_min[t]), int(ham_min[t])
        per_subset.append((members, None if b == inf else b, None if h == inf else h))
    per_subset.sort(key=lambda rec: (len(rec[0]), rec[0]))
    return DistanceProfile(grc.m, sbdh, shdh, tuple(per_subset))


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


# ---------------------------------------------------------------------------
# serialization


def _variant_name(variant: TypeI | TypeII | None) -> str:
    if variant is None:
        return "none"
    return "type1" if isinstance(variant, TypeI) else "type2"


def grc_to_text(grc: GrcCode) -> str:
    lines = [f"{grc.field.q} {grc.gen.ncols} {grc.dim} {grc.m}"]
    for r in grc.gen.rows():
        lines.append(" ".join(str(x) for x in r))
    lines.append(f"variant {_variant_name(grc.variant)}")
    if isinstance(grc.variant, TypeI):
        for p in grc.variant.perms:
            lines.append("perm " + " ".join(str(i) for i in p.images))
    elif isinstance(grc.variant, TypeII):
        for b in grc.variant.transforms:
            lines.append("transform " + " ".join(str(x) for x in b.flatten()))
    if grc.qc is not None:
        lines.append(f"qc-n {grc.n}")
        for gi in grc.qc:
            lines.append("qc-gen " + gi.to_tuple_str())
    return "\n".join(lines) + "\n"


_VARIANTS = ("type1", "type2", "none")


def grc_from_text(text: str) -> GrcCode:
    (_, total_n, k, m), field, rows, lines = _read_code_text(text, "GRC", "q n k m", (4,))
    gen = Matrix.from_rows(field, rows)
    tag = lines[0].split() if lines else []
    if tag[:1] != ["variant"] or len(tag) < 2:
        raise ValueError(f"missing variant line 'variant {'|'.join(_VARIANTS)}'")
    variant_name = tag[1]
    if variant_name not in _VARIANTS:
        raise ValueError(f"unknown variant {variant_name!r}; expected {'|'.join(_VARIANTS)}")
    lines = lines[1:]
    qc_lines = [ln for ln in lines if ln.startswith("qc-")]
    if qc_lines:
        head, *gen_lines = (ln.split(None, 1) for ln in qc_lines)
        if head[0] != "qc-n" or len(head) < 2:
            raise ValueError("QC lines must start with 'qc-n N'")
        if any(ln[0] != "qc-gen" or len(ln) < 2 for ln in gen_lines):
            raise ValueError("each line after 'qc-n' must be 'qc-gen POLY'")
        n = int(head[1])
        if n * m != total_n:
            raise ValueError(f"qc-n {n} disagrees with the header's n = {total_n} in {m} blocks")
        gens = [Poly.parse_mod_xn(field, ln[1], n) for ln in gen_lines]
        rebuilt = from_qc_generators(n, gens)
        if rebuilt.gen != gen:
            raise ValueError("stored generator disagrees with QC reconstruction")
        if _variant_name(rebuilt.variant) != variant_name:
            raise ValueError(f"stored variant {variant_name} disagrees with QC reconstruction "
                             f"({_variant_name(rebuilt.variant)})")
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
        rebuilt = as_blocked(LinearCode.from_rows(field, rows), m)
    if rebuilt.gen != gen:
        raise ValueError("stored generator disagrees with variant reconstruction")
    return rebuilt
