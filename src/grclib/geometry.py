"""Projective-point machinery: Simplex codes, the projective expansion of a
blocked generator, and Solomon-Stiffler puncturing of Simplex codes.

Points of PG(k-1, q) are normalized so the first nonzero coordinate is 1
and listed lexicographically by coordinate tuple.  The projective expansion
joins one combined block sum(alpha_i G_i) per point; its Hamming weights are
the block weights of the source code magnified by q^(m-1), which is what
makes the expansion useful as an exact cross-check.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .bounds import griesmer_g, n_points
from .codes import LinearCode
from .fields import Field
from .grc import GrcCode
from .matrices import Matrix

__all__ = [
    "pg_points",
    "simplex_code",
    "expand_projective",
    "solomon_stiffler",
]


def pg_points(field: Field, k: int) -> tuple[tuple[int, ...], ...]:
    """All N_k points of PG(k-1, q), normalized, in lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pts = []
    for lead in range(k):
        # first nonzero coordinate at position `lead`, normalized to 1
        for tail in product(range(field.q), repeat=k - lead - 1):
            pts.append((0,) * lead + (1,) + tail)
    pts.sort()
    assert len(pts) == n_points(field.q, k)
    return tuple(pts)


def simplex_code(field: Field, k: int) -> LinearCode:
    """[N_k, k, q^(k-1)] Simplex code whose columns are all projective points."""
    pts = pg_points(field, k)
    rows = [[p[i] for p in pts] for i in range(k)]
    return LinearCode.from_rows(field, rows)


def _expansion_points(field: Field, m: int) -> list[tuple[int, ...]]:
    """Points of PG(m-1, q) with the m standard-basis points first."""
    basis = [tuple(1 if j == i else 0 for j in range(m)) for i in range(m)]
    rest = [p for p in pg_points(field, m) if p not in set(basis)]
    return basis + rest


def expand_projective(source: GrcCode | Sequence[Matrix]) -> LinearCode:
    """Length n*N_m code joining sum(alpha_i G_i) over all projective points.

    Accepts a GRC or an explicit list of k x n blocks G_0..G_{m-1}.  The
    standard-basis points come first, so the original blocks are a prefix.
    """
    if isinstance(source, GrcCode):
        blocks = [source.block_matrix(i) for i in range(1, source.m + 1)]
    else:
        blocks = list(source)
    if not blocks:
        raise ValueError("no blocks to expand")
    field = blocks[0].field
    shape = (blocks[0].nrows, blocks[0].ncols)
    if any((b.nrows, b.ncols) != shape or b.field != field for b in blocks):
        raise ValueError("blocks must share field and shape")
    m = len(blocks)
    parts = []
    for point in _expansion_points(field, m):
        combo = Matrix.zeros(field, *shape)
        for alpha, g in zip(point, blocks):
            if alpha:
                combo = combo + (g if alpha == 1 else g.scale(alpha))
        parts.append(combo)
    joined = Matrix.hjoin(parts)
    return LinearCode(field, joined.ncols, joined.nrows, joined)


class ConstructionError(ValueError):
    """A deterministic construction failed to meet its promised parameters."""


def solomon_stiffler(
    field: Field,
    k: int,
    k1s: int | Sequence[int],
    s: int = 1,
    delta: int = 0,
    *,
    cap: int | None = None,
) -> LinearCode:
    """Griesmer code from s copies of PG(k-1, q) minus nested subspaces.

    Removes, for each k_i, the points of the span of the first k_i basis
    vectors (k > k_1 > k_2 > ...), then `delta` further points chosen as the
    lexicographically smallest still present.  Column multiplicities must
    stay nonnegative.  The minimum distance is computed (k <= cap) and
    Griesmer equality n = g_q(k, d) is enforced.
    """
    ks = [k1s] if isinstance(k1s, int) else list(k1s)
    if any(not 1 <= x < k for x in ks) or sorted(ks, reverse=True) != ks or len(set(ks)) != len(ks):
        raise ValueError("need k > k_1 > k_2 > ... >= 1")
    if not 0 <= delta <= field.q - 1:
        raise ValueError("delta must be in [0, q-1]")
    if s < 1:
        raise ValueError("s must be >= 1")
    if sum(ks[: min(s + 1, len(ks))]) > s * k:
        raise ValueError("subspace dimensions exceed s*k")

    pts = pg_points(field, k)
    counts = {p: s for p in pts}
    for ki in ks:
        for p in pts:
            if all(x == 0 for x in p[ki:]):
                counts[p] -= 1
    if any(c < 0 for c in counts.values()):
        raise ConstructionError("nested subspace removal exceeds available copies")
    removed = 0
    for p in pts:  # lexicographically smallest eligible first
        while removed < delta and counts[p] > 0:
            counts[p] -= 1
            removed += 1
        if removed == delta:
            break
    if removed < delta:
        raise ConstructionError("not enough points left for delta removal")

    cols = [p for p in pts for _ in range(counts[p])]
    rows = [[c[i] for c in cols] for i in range(k)]
    code = LinearCode.from_rows(field, rows)

    q = field.q
    expected_n = s * n_points(q, k) - sum(n_points(q, ki) for ki in ks) - delta
    if code.n != expected_n:
        raise ConstructionError(f"length {code.n} != expected {expected_n}")
    d = code.min_distance(cap=cap)
    if code.n != griesmer_g(q, k, d):
        raise ConstructionError(
            f"not a Griesmer code: n={code.n}, g_q({k},{d})={griesmer_g(q, k, d)}"
        )
    return code
