"""Bound suite for a constructed code plus the demo's discrepancy notes.

``bound_suite`` evaluates every applicable closed-form bound against a
computed distance profile and returns structured reports; a Type-II code
exceeding the Type-I-only upper bound is reported as 'not-applicable' with
an 'exceeds' note rather than as a violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import (
    BoundReport,
    check_cyclic_lower_bound,
    check_qc_type2_bounds,
    classify_mds,
    griesmer_gm,
    levenshtein_min_channels,
    n_points,
    shdh_tradeoff_upper,
    singleton_block,
    type1_upper,
    type1_upper_applicable,
)
from .grc import (
    DistanceProfile,
    GrcCode,
    TypeI,
    degeneracy_and_regularity,
)

__all__ = ["bound_suite", "demo_notes"]


def bound_suite(
    grc: GrcCode, profile: DistanceProfile, *, cap: int | None = None
) -> list[BoundReport]:
    """Every bound that applies to ``grc``, checked against ``profile``, as
    rows in this order:

    - for each r = 1..m, ``singleton-block``, then ``griesmer-block`` when
      k >= r;
    - for a Type-I or Type-II code, ``type1-upper`` for each r, then
      ``shdh-tradeoff-upper`` for a non-degenerate Type-II code;
    - ``cyclic-kappa-lower`` for a Type-I code on a cyclic base code;
    - ``qc-type2-lower`` for a quasi-cyclic code not tagged Type-I.

    ``cap`` bounds the enumeration of the base code's minimum distance."""
    q = grc.field.q
    n, k, m = grc.n, grc.dim, grc.m
    reports: list[BoundReport] = []

    for r in range(1, m + 1):
        d_r = profile.sbdh[r - 1]
        bound = singleton_block(n, r, k)
        verdict = "tight" if d_r == bound else ("satisfied" if d_r <= bound else "violated")
        reports.append(
            BoundReport.build(
                "singleton-block",
                {"n": n, "r": r, "k": k},
                bound,
                d_r,
                verdict,
                note=classify_mds(n, r, k, d_r),
            )
        )
        if k >= r:
            g_bound = griesmer_gm(q, r, k, d_r)
            ok = n * n_points(q, r) >= g_bound
            reports.append(
                BoundReport.build(
                    "griesmer-block",
                    {"q": q, "n": n, "r": r, "k": k, "d_r": d_r},
                    g_bound,
                    n * n_points(q, r),
                    "satisfied" if ok else "violated",
                )
            )

    # Type-I-only upper bound n - k + r; Type-II codes may exceed it
    is_type1 = isinstance(grc.variant, TypeI)
    if grc.variant is not None:
        structure = degeneracy_and_regularity(grc)
        applicable = is_type1 and structure.regular and type1_upper_applicable(
            grc.base.is_full_length(),
            max((p.max_cycle_length() for p in grc.variant.perms), default=1),
            k,
            m,
        )
        for r in range(1, m + 1):
            bound = type1_upper(n, k, r)
            d_r = profile.sbdh[r - 1]
            if applicable:
                verdict, note = ("satisfied" if d_r <= bound else "violated"), ""
            elif is_type1:
                verdict, note = "not-applicable", "preconditions not met"
            else:
                verdict = "not-applicable"
                note = "exceeds the Type-I-only bound" if d_r > bound else ""
            reports.append(
                BoundReport.build(
                    "type1-upper", {"n": n, "k": k, "r": r}, bound, d_r, verdict, note
                )
            )
        if not is_type1 and structure.non_degenerate:
            bound = shdh_tradeoff_upper(q, m, profile.sbdh[m - 1], profile.shdh[0])
            actual = profile.shdh[m - 1]
            reports.append(
                BoundReport.build(
                    "shdh-tradeoff-upper",
                    {"q": q, "m": m, "d_m": profile.sbdh[m - 1], "d1": profile.shdh[0]},
                    bound,
                    actual,
                    "satisfied" if actual <= bound else "violated",
                )
            )

    if is_type1 and grc.base.cyclic_gen is not None:
        reports.append(check_cyclic_lower_bound(grc, profile, cap=cap))
    if grc.qc is not None and not is_type1:
        reports.append(check_qc_type2_bounds(grc, profile, cap=cap))
    return reports


@dataclass(frozen=True)
class DemoNote:
    topic: str
    text: str


def demo_notes() -> list[DemoNote]:
    """Known discrepancies surfaced by the verification rather than patched."""
    lev_formula = levenshtein_min_channels(23, 7, 4)
    tradeoff = shdh_tradeoff_upper(2, 2, 11, 6)
    return [
        DemoNote(
            "golay-dimension",
            "the binary Golay code is [23,12,7]: its degree-11 generator forces "
            "dimension 12 even where the m=11 repetition is quoted with dimension 11",
        ),
        DemoNote(
            "levenshtein-count",
            f"literal channel-count formula gives {lev_formula} for (n=23, d=7, t=4); "
            "the worked value 1+C(7,3)=36 is also recorded; not reconciled",
        ),
        DemoNote(
            "shdh-tradeoff-example",
            f"for (q=2, m=2, d_2=11, d_1=6) the trade-off formula gives {tradeoff}; "
            "the worked example claims a maximum of 12; formula implemented as printed",
        ),
        DemoNote(
            "simplex-d2",
            "the [15,4] Simplex m=4 repetition has second sub-block distance exactly 12 "
            "(only the lower bound 12 is quoted elsewhere)",
        ),
    ]
