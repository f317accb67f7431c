"""The nine deterministic correctable-pattern scenarios for the two worked
Golay constructions (five for the shift/Type-I code, four for the
mixed/Type-II code).  Each scenario corrupts a fresh codeword of a code and
returns whether it decoded, through the code's own decoder
(``GrcCode.decoder``); used both by the dedicated tests and the acceptance
suite."""

from __future__ import annotations

from grclib.decoding import Candidate, GenieVerifier, chase_combine, md_decode, multi_round_decode
from grclib.grc import GrcCode

MSG = (1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0)


def _corrupt(codeword, row_cols, n=23):
    rec = list(codeword)
    for row, col in row_cols:
        rec[(row - 1) * n + col] ^= 1
    return rec


def type1_class1(grc: GrcCode) -> bool:
    """<= 3 bit errors in every single row."""
    cw = grc.full_code().encode(MSG)
    hits = [(r, c) for r in (1, 2, 3, 4) for c in (3 * r, 3 * r + 1, 3 * r + 2)]
    rec = _corrupt(cw, hits)
    return multi_round_decode(grc, rec, 1, GenieVerifier(MSG)).message == MSG


def type1_class2(grc: GrcCode) -> bool:
    """errors in <= 5 columns across two rows (block radius of 11)."""
    cw = grc.full_code().encode(MSG)
    cols = (2, 5, 9, 13, 20)
    rec = _corrupt(cw, [(1, c) for c in cols] + [(3, c) for c in cols])
    direct = grc.decoder.candidate_message(rec, Candidate(2, (1, 3), "block")) == MSG
    ladder = multi_round_decode(grc, rec, 2, GenieVerifier(MSG)).message == MSG
    return direct and ladder


def type1_class3(grc: GrcCode) -> bool:
    """errors in <= 6 columns across three rows (block radius of 13)."""
    cw = grc.full_code().encode(MSG)
    cols = (1, 4, 8, 12, 16, 21)
    rec = _corrupt(cw, [(r, c) for r in (1, 2, 4) for c in cols])
    direct = grc.decoder.candidate_message(rec, Candidate(3, (1, 2, 4), "block")) == MSG
    ladder = multi_round_decode(grc, rec, 3, GenieVerifier(MSG)).message == MSG
    return direct and ladder


def type1_class4(grc: GrcCode) -> bool:
    """errors in <= 7 columns across all four rows (block radius of 15)."""
    cw = grc.full_code().encode(MSG)
    cols = (0, 3, 6, 10, 14, 18, 22)
    rec = _corrupt(cw, [(r, c) for r in (1, 2, 3, 4) for c in cols])
    direct = grc.decoder.candidate_message(rec, Candidate(4, (1, 2, 3, 4), "block")) == MSG
    ladder = multi_round_decode(grc, rec, 4, GenieVerifier(MSG)).message == MSG
    return direct and ladder


def chase_frame(grc: GrcCode) -> list[tuple[int, ...]]:
    """The four received blocks of class 5 on a Type-I code of length 23 and
    m = 4: after alignment onto block 1, three columns are wrong in 3 of 4
    copies (the majority) and ten columns in 1 of 4 (partial)."""
    base = grc.full_code().encode(MSG)[: grc.n]
    aligned_errors = [[0] * 23 for _ in range(4)]
    for c in (0, 1, 2):  # three majority columns: 3 of 4 copies wrong
        for r in (0, 1, 2):
            aligned_errors[r][c] = 1
    for i, c in enumerate(range(5, 15)):  # ten partial columns: 1 of 4 wrong
        aligned_errors[i % 4][c] = 1
    zs = [tuple(b ^ e for b, e in zip(base, aligned_errors[0]))]
    for p, err in zip(grc.variant.perms, aligned_errors[1:]):
        zs.append(p.apply(tuple(b ^ e for b, e in zip(base, err))))
    return zs


def type1_class5(grc: GrcCode) -> bool:
    """all partial column-errors plus three majority column-errors (chase)."""
    zs = chase_frame(grc)
    base = grc.full_code().encode(MSG)[: grc.n]
    combined = chase_combine(zs, grc.variant.perms, field=grc.field)
    vote_ok = sum(a != b for a, b in zip(combined, base)) == 3
    decode_ok = md_decode(grc.base, combined).message == MSG
    rec = tuple(x for z in zs for x in z)
    ladder = multi_round_decode(grc, rec, 4, GenieVerifier(MSG)).message == MSG
    return vote_ok and decode_ok and ladder


def type2_class1(grc: GrcCode) -> bool:
    """<= 3 bit errors in every single row."""
    cw = grc.full_code().encode(MSG)
    hits = [(r, c) for r in (1, 2, 3, 4) for c in (2 * r, 2 * r + 4, 2 * r + 9)]
    rec = _corrupt(cw, hits)
    return multi_round_decode(grc, rec, 1, GenieVerifier(MSG)).message == MSG


def type2_class2(grc: GrcCode) -> bool:
    """<= 6 bits (Hamming radius of 14) or 5 columns (block radius of 12)
    across two rows."""
    cw = grc.full_code().encode(MSG)
    rec = _corrupt(cw, [(2, c) for c in (0, 7, 15)] + [(4, c) for c in (3, 11, 19)])
    bits_ok = grc.decoder.candidate_message(rec, Candidate(2, (2, 4), "hamming")) == MSG
    bits_ladder = multi_round_decode(grc, rec, 2, GenieVerifier(MSG)).message == MSG
    cols = (1, 6, 10, 17, 22)
    rec = _corrupt(cw, [(2, c) for c in cols] + [(4, c) for c in cols])
    cols_ok = grc.decoder.candidate_message(rec, Candidate(2, (2, 4), "block")) == MSG
    return bits_ok and bits_ladder and cols_ok


def type2_class3(grc: GrcCode) -> bool:
    """<= 11 bits (Hamming radius of 24) or 7 columns (block radius of 16)
    across three rows."""
    cw = grc.full_code().encode(MSG)
    hits = [(1, c) for c in (0, 5, 9, 14)] + [(2, c) for c in (1, 6, 11, 16)] + [
        (3, c) for c in (2, 7, 12)
    ]
    rec = _corrupt(cw, hits)
    bits_ok = grc.decoder.candidate_message(rec, Candidate(3, (1, 2, 3), "hamming")) == MSG
    cols = (0, 4, 7, 11, 15, 18, 21)
    rec = _corrupt(cw, [(r, c) for r in (1, 2, 3) for c in cols])
    cols_ok = grc.decoder.candidate_message(rec, Candidate(3, (1, 2, 3), "block")) == MSG
    ladder = multi_round_decode(grc, rec, 3, GenieVerifier(MSG)).message == MSG
    return bits_ok and cols_ok and ladder


def type2_class4(grc: GrcCode) -> bool:
    """<= 17 bits (Hamming radius of 36) or 9 columns (block radius of 19)
    across all four rows."""
    cw = grc.full_code().encode(MSG)
    hits = (
        [(1, c) for c in (0, 3, 5, 7)]
        + [(2, c) for c in (1, 5, 10, 14)]
        + [(3, c) for c in (4, 8, 9, 12)]
        + [(4, c) for c in (0, 5, 11, 14, 20)]
    )
    rec = _corrupt(cw, hits)
    bits_ok = grc.decoder.candidate_message(rec, Candidate(4, (1, 2, 3, 4), "hamming")) == MSG
    cols = (0, 2, 5, 8, 11, 14, 17, 20, 22)
    rec = _corrupt(cw, [(r, c) for r in (1, 2, 3, 4) for c in cols])
    cols_ok = grc.decoder.candidate_message(rec, Candidate(4, (1, 2, 3, 4), "block")) == MSG
    ladder = multi_round_decode(grc, rec, 4, GenieVerifier(MSG)).message == MSG
    return bits_ok and cols_ok and ladder


TYPE1_CLASSES = [type1_class1, type1_class2, type1_class3, type1_class4, type1_class5]
TYPE2_CLASSES = [type2_class1, type2_class2, type2_class3, type2_class4]
