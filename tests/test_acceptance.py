"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail lines
inline; every criterion is exact-integer (no tolerances) except the FER
study, which is ordinal with a two-proportion significance gate.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from grclib.bounds import (
    check_cyclic_lower_bound,
    check_qc_type2_bounds,
    classify_mds,
    griesmer_g,
    is_fractional_mds,
    n_points,
    qc_type1_sandwich,
    singleton_block,
    type1_upper,
)
from grclib.cli import main as cli_main
from grclib.codes import Block, LinearCode
from grclib.codetable import load_table, verify_table
from grclib.decoding import (
    AwgnBpskHard,
    Candidate,
    SimConfig,
    fer_simulate,
)
from grclib.fields import field_create
from grclib.geometry import expand_projective, solomon_stiffler
from grclib.grc import (
    as_blocked,
    distance_profile,
    from_qc_generators,
    type1_regular,
    type2,
)
from grclib.matrices import Matrix
from grclib.perms import Permutation
from grclib.poly import Poly, companion_matrix
from grclib.verification import bound_suite
from grclib import presets

GF2 = field_create(2)
GF3 = field_create(3)
GF11 = field_create(11)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def gf11_rs_grc():
    g = Poly.parse(GF11, "x^4+3x^3+5x^2+8x+1")
    fs = [
        Poly.parse(GF11, "3x^6+8x^5+4x^4+x^2+7x+5"),
        Poly.parse(GF11, "10x^6+5x^5+7x^4+7x^2+9x+2"),
        Poly.parse(GF11, "9x^6+4x^5+7x^4+6x^2+6"),
    ]
    return from_qc_generators(10, [f * g for f in fs])


@pytest.fixture(scope="module")
def gf11_rs_profile(gf11_rs_grc):
    return distance_profile(gf11_rs_grc)


@pytest.fixture(scope="module")
def code_11_4_type2():
    base = LinearCode.from_rows(
        GF2,
        [
            [1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1],
            [0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1],
            [0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1],
            [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
        ],
    )
    return type2(base, companion_matrix(Poly.parse(GF2, "x^4+x+1")), 4)


def test_criterion_01_golay_m11_hierarchy(golay):
    t0 = time.monotonic()
    grc = type1_regular(golay, Permutation.cyclic_shift(23), 11)
    prof = distance_profile(grc)
    elapsed = time.monotonic() - t0
    expected = (7, 11, 13, 15, 16, 17, 18, 19, 20, 21, 22)
    ok = prof.sbdh == expected and elapsed < 120
    report(1, ok, f"C_pi,11 SBDH {prof.sbdh} in {elapsed:.1f}s")


def test_criterion_02_ternary_and_extended(ternary_golay, golay):
    t0 = time.monotonic()
    tern = distance_profile(type1_regular(ternary_golay, Permutation.cyclic_shift(11), 5))
    ext_b = distance_profile(
        type1_regular(golay.extend(), Permutation.extended_shift(23), 11)
    )
    ext_t = distance_profile(
        type1_regular(ternary_golay.extend(), Permutation.extended_shift(11), 5)
    )
    elapsed = time.monotonic() - t0
    ok = (
        tern.sbdh == (5, 7, 8, 9, 10)
        and ext_b.sbdh == (8, 12, 14, 16, 17, 18, 19, 20, 21, 22, 23)
        and ext_t.sbdh == (6, 8, 9, 10, 11)
        and elapsed < 120
    )
    report(
        2,
        ok,
        f"ternary {tern.sbdh}; extended binary {ext_b.sbdh}; "
        f"extended ternary {ext_t.sbdh} in {elapsed:.1f}s",
    )


def test_criterion_03_worked_example_profiles(golay_shift4_profile, golay_mixed_profile):
    t0 = time.monotonic()
    p1, p2 = golay_shift4_profile, golay_mixed_profile
    elapsed = time.monotonic() - t0
    ok = (
        p1.sbdh == (7, 11, 13, 15)
        and p2.sbdh == (7, 12, 16, 19)
        and p2.shdh == (7, 14, 24, 36)
        and elapsed < 60
    )
    report(3, ok, f"type1 {p1.sbdh}; type2 {p2.sbdh}/{p2.shdh}")


def test_criterion_04_construction_examples(code_11_4_type2, gf11_rs_profile):
    t0 = time.monotonic()
    p114 = distance_profile(code_11_4_type2)

    ss = solomon_stiffler(GF2, 5, 3)
    pss = distance_profile(type2(ss, companion_matrix(Poly.parse(GF2, "x^5+x^2+1")), 5))

    rs = gf11_rs_profile
    # r=2 attains the rational Singleton equality; r=3 attains the ceil form
    # as well (m | k there, so the exact-MDS verdict subsumes fractional)
    mds_r2 = classify_mds(10, 2, 6, rs.sbdh[1])
    frac_r3 = is_fractional_mds(10, 3, 6, rs.sbdh[2])

    g30 = Poly.parse(GF2, "x^9+x^7+x^6+x^3+x^2+1")
    f30 = Poly.parse(GF2, "x^3+x^2+1")
    p30 = distance_profile(from_qc_generators(15, [g30, f30 * g30]))
    elapsed = time.monotonic() - t0
    ok = (
        p114.sbdh == (5, 8, 10, 11)
        and pss.sbdh == (12, 18, 21, 23, 24)
        and rs.sbdh == (5, 8, 9)
        and rs.shdh == (5, 12, 20)
        and mds_r2 == "mds"
        and frac_r3
        and p30.sbdh == (6, 11)
        and p30.shdh == (6, 12)
        and elapsed < 60
    )
    report(
        4,
        ok,
        f"[(11,4),4] {p114.sbdh}; SS {pss.sbdh}; RS {rs.sbdh}/{rs.shdh} "
        f"(r2={mds_r2}, r3 fractional={frac_r3}); two-block {p30.sbdh}/{p30.shdh} "
        f"in {elapsed:.1f}s",
    )


def test_criterion_05_code_table():
    t0 = time.monotonic()
    entries = load_table()
    fast = [e for e in entries if e.k <= 17]
    t_fast0 = time.monotonic()
    fast_reports = verify_table(fast, cap=17)
    fast_elapsed = time.monotonic() - t_fast0
    rest = [e for e in entries if 17 < e.k <= 26]
    rest_reports = verify_table(rest, cap=26)
    elapsed = time.monotonic() - t0
    reports = fast_reports + rest_reports
    verified = [r for r in reports if r.status == "verified"]
    flagged = [r for r in reports if r.status in ("mismatch", "undecodable")]
    silent = [
        r
        for r in reports
        if r.status == "verified"
        and (r.computed_d1, r.computed_d2, r.computed_ud2)
        != (r.entry.d1, r.entry.d2, r.entry.ud2)
    ]
    ok = (
        len(verified) >= 30
        and len(verified) + len(flagged) == len(reports)
        and not silent
        and not flagged
        and fast_elapsed < 180
        and elapsed < 1800
    )
    report(
        5,
        ok,
        f"{len(verified)}/{len(reports)} rows verified, {len(flagged)} flagged; "
        f"k<=17 in {fast_elapsed:.1f}s, total {elapsed:.1f}s",
    )


def test_criterion_06_bound_suite(
    golay,
    ternary_golay,
    golay_shift4,
    golay_mixed,
    golay_shift4_profile,
    golay_mixed_profile,
    simplex,
    code_11_4_type2,
    gf11_rs_grc,
    gf11_rs_profile,
):
    problems: list[str] = []

    def check_suite(grc, prof, label):
        for rep in bound_suite(grc, prof):
            if rep.verdict == "violated":
                problems.append(f"{label}: {rep.name}")

    constructions = [
        ("golay-m11", type1_regular(golay, Permutation.cyclic_shift(23), 11)),
        ("ternary-m5", type1_regular(ternary_golay, Permutation.cyclic_shift(11), 5)),
        ("simplex-m4", type1_regular(simplex, Permutation.cyclic_shift(15), 4)),
        ("type1-shift", golay_shift4),
        ("type2-mixed", golay_mixed),
        ("11-4-type2", code_11_4_type2),
        ("gf11-rs", gf11_rs_grc),
    ]
    profiles = {}
    for label, grc in constructions:
        prof = (
            golay_shift4_profile
            if grc is golay_shift4
            else golay_mixed_profile
            if grc is golay_mixed
            else gf11_rs_profile
            if grc is gf11_rs_grc
            else distance_profile(grc)
        )
        profiles[label] = (grc, prof)
        check_suite(grc, prof, label)

    # kappa-gated cyclic lower bound (Type-I from cyclic bases)
    for label in ("golay-m11", "ternary-m5", "simplex-m4"):
        grc, prof = profiles[label]
        row = check_cyclic_lower_bound(grc, prof)
        if row.verdict == "not-applicable":
            problems.append(f"{label}: kappa precondition unexpectedly violated ({row.note})")
        elif row.verdict != "satisfied":
            problems.append(f"{label}: cyclic lower bound row reads {row.verdict}")
        for r, (lo, d_r) in enumerate(zip(row.bound, row.actual), start=1):
            if d_r < lo:
                problems.append(f"{label}: cyclic lower bound fails at r={r}")

    # Type-I regular upper bound
    for label in ("golay-m11", "ternary-m5", "simplex-m4", "type1-shift"):
        grc, prof = profiles[label]
        for r in range(1, grc.m + 1):
            if prof.sbdh[r - 1] > type1_upper(grc.n, grc.dim, r):
                problems.append(f"{label}: type1 upper bound fails at r={r}")

    # QC Type-I sandwich (kappa = 2 for the [30,6,12] base: m = 2)
    g30 = Poly.parse(GF2, "x^9+x^7+x^6+x^3+x^2+1")
    f30 = Poly.parse(GF2, "x^3+x^2+1")
    base30 = from_qc_generators(15, [g30, f30 * g30]).full_code()
    sandwich = distance_profile(type1_regular(base30, Permutation.block_shift(15, 2), 2))
    for r in (1, 2):
        lo, hi = qc_type1_sandwich(2, 2, 15, 6, 12, 0, r)
        if not lo <= sandwich.sbdh[r - 1] <= hi:
            problems.append(f"sandwich fails at r={r}: {lo},{sandwich.sbdh[r-1]},{hi}")

    # QC Type-II bounds on a precondition-satisfying pair
    g = Poly.parse(GF2, presets.GOLAY_GEN)
    gens = [g, Poly.parse(GF2, "x^3+x+1") * g]
    qc9 = from_qc_generators(23, gens)
    prof9 = distance_profile(qc9)
    row9 = check_qc_type2_bounds(qc9, prof9)
    if row9.verdict == "not-applicable":
        problems.append(f"qc type2 preconditions unexpectedly violated ({row9.note})")
    elif row9.verdict != "satisfied":
        problems.append(f"qc type2 row reads {row9.verdict}")
    for kind, implied, actual in zip(("sbdh", "shdh"), row9.bound, row9.actual):
        for r, (lo, d_r) in enumerate(zip(implied, actual), start=1):
            if d_r < lo:
                problems.append(f"qc type2 {kind} bound fails at r={r}")

    # the GF(11) code beats the Type-I-only upper bound at r in {2, 3}
    rs = gf11_rs_profile
    for r in (2, 3):
        if not rs.sbdh[r - 1] > type1_upper(10, 6, r):
            problems.append(f"gf11 does not exceed type1 upper at r={r}")

    report(6, not problems, f"bound suite clean over {len(profiles)} constructions"
           + (f"; problems: {problems}" if problems else ""))


def test_criterion_07_expansion_scaling_law():
    rng = random.Random(20240808)
    checked = 0
    failures = []
    while checked < 20:
        q = rng.choice([2, 3])
        field = field_create(q)
        m = rng.randint(1, 3)
        k = rng.randint(2, 10 if q == 2 else 6)
        nb = rng.randint(2, 5)
        rows = [[rng.randrange(q) for _ in range(m * nb)] for _ in range(k)]
        if Matrix.from_rows(field, rows).rank() != k:
            continue
        code = LinearCode.from_rows(field, rows)
        blocked = as_blocked(code, m)
        expanded = expand_projective(blocked)
        block_hist = code.weight_distribution(Block(m)).as_dict()
        ham_hist = expanded.weight_distribution().as_dict()
        scaled = {q ** (m - 1) * w: c for w, c in block_hist.items()}
        if ham_hist != scaled or expanded.k != k:
            failures.append((q, k, m, nb))
        checked += 1
    report(7, not failures, f"20 random block codes scale exactly (failures: {failures})")


def test_criterion_08_decoder_radius(golay_shift4, golay_mixed, code_11_4_type2):
    rng = random.Random(77)
    codes = {"type1": golay_shift4, "type2": golay_mixed, "11-4": code_11_4_type2}
    fulls = {name: grc.full_code() for name, grc in codes.items()}
    tables = {name: distance_profile(grc).subset_table() for name, grc in codes.items()}
    trials = 10_000
    failures = 0
    t0 = time.monotonic()
    for _ in range(trials):
        name = rng.choice(list(codes))
        grc = codes[name]
        n, m, k = grc.n, grc.m, grc.dim
        subset_table = tables[name]
        t = rng.choice(list(subset_table))
        d_block, d_ham = subset_table[t]
        use_hamming = rng.random() < 0.5
        msg = tuple(rng.randrange(2) for _ in range(k))
        rec = list(fulls[name].encode(msg))
        if use_hamming:
            radius = (d_ham - 1) // 2
            for row, col in rng.sample([(r, c) for r in t for c in range(n)], radius):
                rec[(row - 1) * n + col] ^= 1
            got = grc.decoder.candidate_message(rec, Candidate(len(t), t, "hamming"))
        else:
            radius = (d_block - 1) // 2
            for col in rng.sample(range(n), radius):
                rows = rng.sample(t, rng.randint(1, len(t)))
                for row in rows:
                    rec[(row - 1) * n + col] ^= 1
            got = grc.decoder.candidate_message(rec, Candidate(len(t), t, "block"))
        if got != msg:
            failures += 1
    elapsed = time.monotonic() - t0

    from pattern_classes import TYPE1_CLASSES, TYPE2_CLASSES

    class_results = [f(golay_shift4) for f in TYPE1_CLASSES] + [
        f(golay_mixed) for f in TYPE2_CLASSES
    ]
    ok = failures == 0 and all(class_results)
    report(
        8,
        ok,
        f"{trials} radius trials, {failures} failures; "
        f"{sum(class_results)}/9 pattern classes, {elapsed:.1f}s",
    )


def _two_proportion_z(err_a: int, err_b: int, n: int) -> float:
    """z-score for H0: p_a = p_b (pooled), positive when a < b."""
    pa, pb = err_a / n, err_b / n
    pool = (err_a + err_b) / (2 * n)
    if pool in (0.0, 1.0):
        return math.inf if err_a != err_b else 0.0
    se = math.sqrt(pool * (1 - pool) * 2 / n)
    return (pb - pa) / se


def test_criterion_09_fer_study(golay_shift4, golay_mixed):
    t0 = time.monotonic()
    channel = AwgnBpskHard(-5.0)
    seed = 20240808
    repetition = presets.golay_classical_repetition(4)

    def run(frames):
        runs = {}
        for code_id, grc, scheme in (
            ("type1", golay_shift4, "multiround"),
            ("type2", golay_mixed, "multiround"),
            ("repetition", repetition, "repetition"),
            ("ir", golay_mixed, "ir"),
        ):
            cfg = SimConfig(
                grc, channel, frames=frames, seed=seed, max_depth=4,
                scheme=scheme, code_id=code_id,
            )
            runs[code_id] = fer_simulate(cfg)
        return runs

    frames = 2000
    runs = run(frames)
    monotone = all(
        all(a.frame_errors >= b.frame_errors for a, b in zip(r.per_depth, r.per_depth[1:]))
        for r in runs.values()
    )
    z_rep = _two_proportion_z(
        runs["type1"].per_depth[3].frame_errors,
        runs["repetition"].per_depth[3].frame_errors,
        frames,
    )
    z_ir = _two_proportion_z(
        runs["type2"].per_depth[3].frame_errors,
        runs["ir"].per_depth[3].frame_errors,
        frames,
    )
    if min(z_rep, z_ir) <= 1.96:
        frames = 10_000
        runs = run(frames)
        z_rep = _two_proportion_z(
            runs["type1"].per_depth[3].frame_errors,
            runs["repetition"].per_depth[3].frame_errors,
            frames,
        )
        z_ir = _two_proportion_z(
            runs["type2"].per_depth[3].frame_errors,
            runs["ir"].per_depth[3].frame_errors,
            frames,
        )
    elapsed = time.monotonic() - t0
    fers = {cid: round(r.per_depth[3].fer, 4) for cid, r in runs.items()}
    ok = monotone and z_rep > 1.96 and z_ir > 1.96 and elapsed < 900
    report(
        9,
        ok,
        f"depth-4 FER {fers} at {frames} frames; z(type1<rep)={z_rep:.1f}, "
        f"z(type2<ir)={z_ir:.1f}, monotone={monotone}, {elapsed:.0f}s",
    )


def test_criterion_10_determinism(tmp_path, golay_mixed):
    cfg_path = tmp_path / "sim.cfg"
    code_path = tmp_path / "code.grc"
    from grclib.grc import grc_to_text

    code_path.write_text(grc_to_text(golay_mixed))
    cfg_path.write_text(
        f"code = {code_path}\nchannel = awgn -5\nframes = 200\nseed = 99\n"
        "max_depth = 4\ncode_id = det\n"
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()

    out_t = tmp_path / "t.csv"
    assert cli_main(
        ["simulate", "--config", str(cfg_path), "--out", str(out_t), "--threads", "2"]
    ) == 0
    # threaded run: identical aggregate counts
    threaded_counts = [ln.split(",")[4:6] for ln in out_t.read_text().splitlines()[1:]]
    serial_counts = [ln.split(",")[4:6] for ln in out_a.read_text().splitlines()[1:]]
    same_counts = threaded_counts == serial_counts

    # search determinism under the same seed
    from grclib.codetable import search_qc_type2

    s1 = search_qc_type2(31, 10, 20, seed=4)
    s2 = search_qc_type2(31, 10, 20, seed=4)
    ok = identical and same_counts and s1 == s2
    report(10, ok, f"byte-identical={identical}, threaded counts match={same_counts}")
