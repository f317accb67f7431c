import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grclib import kernels
from grclib.codetable import (
    CodeTableEntry,
    _interpretations,
    hex_decode,
    hex_decode_candidates,
    hex_encode,
    load_table,
    search_qc_type2,
    verify_entry,
    verify_table,
)
from grclib.fields import field_create
from grclib.grc import distance_profile, from_qc_generators
from grclib.poly import Poly

GF2 = field_create(2)


# ---------------------------------------------------------------------------
# hex codec


def test_worked_example_roundtrip():
    f = Poly.parse(GF2, "x^5+x^4+x^3+x+1")
    assert hex_encode(f) == "37"
    assert hex_decode("37", degree=5) == f
    assert hex_decode("3,7", degree=5) == f  # comma-separated nibbles accepted


def test_decode_candidates_are_shifts():
    cands = hex_decode_candidates("37")
    assert [r for r, _ in cands] == [0, 1, 2]
    base = cands[-1][1]
    for r, p in cands:
        assert p == base.shift(2 - r)


def test_zero_nibbles_rejected():
    assert hex_decode_candidates("00") == []
    with pytest.raises(ValueError):
        hex_decode("00")
    with pytest.raises(ValueError):
        hex_decode_candidates("xy")


def test_constant_one():
    assert hex_encode(Poly.one(GF2)) == "1"
    assert hex_decode("1", degree=0) == Poly.one(GF2)


@given(st.integers(0, 2 ** 23 - 1))
@settings(max_examples=200)
def test_roundtrip_random_degree22(bits):
    coeffs = [(bits >> i) & 1 for i in range(22)] + [1]
    f = Poly.from_coeffs(GF2, coeffs)
    assert hex_decode(hex_encode(f), degree=f.degree) == f


def test_hex_encode_rejects_nonbinary():
    gf3 = field_create(3)
    with pytest.raises(ValueError):
        hex_encode(Poly.parse(gf3, "2x+1"))


# ---------------------------------------------------------------------------
# table data and verification


def test_table_loads_56_rows():
    table = load_table()
    assert len(table) == 56
    assert table[0].n == 31 and table[0].k == 6
    assert all(e.n % 2 == 1 for e in table)  # n odd in every row
    assert all(e.m == 2 for e in table)


def test_entry_2_decodes_to_k10_d12():
    table = load_table()
    rep = verify_entry(table[1])
    assert rep.ok
    assert rep.computed_d1 == 12
    assert (rep.entry.n, rep.entry.k) == (31, 10)


def test_entry_1_values():
    rep = verify_entry(load_table()[0])
    assert rep.ok
    assert (rep.computed_d1, rep.computed_d2, rep.computed_ud2) == (15, 23, 31)


def test_entry_37_values():
    rep = verify_entry(load_table()[36])
    assert rep.ok
    assert (rep.computed_d1, rep.computed_d2, rep.computed_ud2) == (28, 44, 56)


def test_row_above_cap_is_skipped():
    table = load_table()
    row33 = table[32]
    assert row33.k == 42
    rep = verify_entry(row33)
    assert rep.status == "skipped"
    assert "above cap" in rep.note


def _full_profiles(entry):
    """(tag, pads, exact (d1, d2, ud2)) of every interpretation of the row,
    each from a full distance_profile."""
    out = []
    for tag, pads, a, b in _interpretations(entry, GF2):
        prof = distance_profile(from_qc_generators(entry.n, [a, b]))
        out.append((tag, pads, (prof.sbdh[0], prof.sbdh[1], prof.shdh[1])))
    return out


def test_tampered_row_is_flagged(monkeypatch):
    # chunks of two codewords: on row 3 the floored sweeps stop with bounds
    # that are not yet the true distances
    monkeypatch.setattr(kernels, "_CHUNK_BUDGET", 1)
    for e in (load_table()[0], load_table()[2]):
        bad = CodeTableEntry(e.no, e.n, e.k, e.g1_hex, e.g2_hex, e.d1 + 1, e.d2, e.ud2)
        rep = verify_entry(bad)
        assert rep.status in ("mismatch", "undecodable")
        # one exact line per interpretation, early-stopped sweeps included
        assert rep.attempted == tuple(
            f"{tag} pads {pads[0]}/{pads[1]}: d1={d1} d2={d2} ud2={ud2}"
            for tag, pads, (d1, d2, ud2) in _full_profiles(bad)
        )


def test_early_rejected_lines_name_a_witness():
    e = load_table()[2]  # verified by its third interpretation
    rep = verify_entry(e)
    assert (rep.status, rep.note, rep.chosen_pads) == ("verified", "cof2", (3, 0))
    assert (rep.computed_d1, rep.computed_d2, rep.computed_ud2) == (11, 19, 24)
    listed = {"d1": e.d1, "d2": e.d2, "ud2": e.ud2}
    profiles = _full_profiles(e)
    assert len(rep.attempted) == 3
    for line, (tag, pads, exact) in zip(rep.attempted[:-1], profiles):
        head, values = line.split(": ")
        assert head == f"{tag} pads {pads[0]}/{pads[1]}"
        assert "=" not in values.replace("<=", "")  # bounds, never exact distances
        for witness in values.split(", "):
            name, bound, want = re.fullmatch(r"(d1|d2|ud2)<=(\d+) \(listed (\d+)\)", witness).groups()
            # a real codeword's weight: at least the true distance, below the listed one
            true = dict(zip(("d1", "d2", "ud2"), exact))[name]
            assert true <= int(bound) < int(want) == listed[name]
    assert rep.attempted[-1] == "cof2 pads 3/0: d1=11 d2=19 ud2=24"


def test_wrong_dimension_is_undecodable():
    e = load_table()[0]
    bad = CodeTableEntry(e.no, e.n, e.k + 1, e.g1_hex, e.g2_hex, e.d1, e.d2, e.ud2)
    rep = verify_entry(bad)
    assert rep.status == "undecodable"


def test_fast_rows_verify():
    table = [e for e in load_table() if e.k <= 13]
    reports = verify_table(table)
    assert all(r.ok for r in reports)


def test_verify_threads_deterministic():
    table = [e for e in load_table() if e.k <= 11]
    serial = verify_table(table, threads=1)
    threaded = verify_table(table, threads=2)
    assert [(r.entry.no, r.status, r.computed_d1, r.computed_d2, r.computed_ud2) for r in serial] == [
        (r.entry.no, r.status, r.computed_d1, r.computed_d2, r.computed_ud2) for r in threaded
    ]


# ---------------------------------------------------------------------------
# search


def test_search_budget_zero_empty():
    assert search_qc_type2(31, 6, 0, seed=1) == []


def test_search_infeasible_k():
    with pytest.raises(ValueError):
        search_qc_type2(31, 7, 5, seed=1)  # no degree-24 divisor of x^31-1


def test_search_finds_d1_15_at_n31_k6():
    cands = search_qc_type2(31, 6, 12, seed=2024)
    assert cands
    assert any(c.sbdh[0] >= 15 for c in cands)


def test_search_candidates_meet_qc_bounds():
    from grclib.bounds import griesmer_g

    cands = search_qc_type2(31, 10, 30, seed=5)
    assert cands
    for c in cands:
        base = from_qc_generators(c.n, [(f * c.g) for f in c.cofactors]).base
        d = base.min_distance()
        for r in range(1, 3):
            assert c.sbdh[r - 1] >= griesmer_g(2, r, d)
            assert c.shdh[r - 1] >= r * d


def test_search_deterministic():
    a = search_qc_type2(31, 10, 25, seed=9)
    b = search_qc_type2(31, 10, 25, seed=9)
    assert a == b
