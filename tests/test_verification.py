"""The bound suite's CSV rows, pinned as literals for one code of every
kind it treats differently: Type-I with the kappa gate met and not met,
irregular Type-I, the classical repetition, QC Type-II with its
preconditions met and not met, QC codes left untagged, a companion-matrix
Type-II and a plain blocked code."""

from __future__ import annotations

import pytest

from grclib import grc as grc_module
from grclib import presets
from grclib.codes import LinearCode
from grclib.fields import field_create
from grclib.grc import as_blocked, distance_profile, from_qc_generators, type1, type2
from grclib.perms import Permutation
from grclib.poly import Poly, companion_matrix
from grclib.verification import bound_suite

GF2, GF3, GF11 = field_create(2), field_create(3), field_create(11)


def _golay_pair():
    g = Poly.parse(GF2, presets.GOLAY_GEN)
    return from_qc_generators(23, [g, Poly.parse(GF2, "x^3+x+1") * g])


def _untagged7():
    return from_qc_generators(7, [Poly.parse(GF2, "x^3+x+1"), Poly.parse(GF2, "x^4+x^3+x^2+1")])


def _untagged_gf3():
    g = Poly.parse(GF3, "x^3+2x^2+x+2")  # h = x^5+x^4+x+1 shares x+1 with 2x^2+1
    return from_qc_generators(8, [Poly.parse(GF3, f) * g for f in ("x+2", "2x^2+1")])


def _gf11():
    g = Poly.parse(GF11, "x^4+3x^3+5x^2+8x+1")
    fs = ("3x^6+8x^5+4x^4+x^2+7x+5", "10x^6+5x^5+7x^4+7x^2+9x+2", "9x^6+4x^5+7x^4+6x^2+6")
    return from_qc_generators(10, [Poly.parse(GF11, f) * g for f in fs])


def _irregular():
    shift = Permutation.cyclic_shift(23)
    return type1(presets.binary_golay(), [shift, shift])


def _companion():
    simplex = LinearCode.cyclic(GF2, 7, Poly.parse(GF2, "x^4+x^3+x^2+1"))  # [7, 3]
    return type2(simplex, companion_matrix(Poly.parse(GF2, "x^3+x+1")), 3)


def _blocked():
    return as_blocked(LinearCode.from_rows(GF3, [[1, 0, 1, 2], [0, 1, 1, 1]]), 2)


CODES = {
    "shift4": lambda: presets.golay_type1_shift(4),
    "shift13": lambda: presets.golay_type1_shift(13),
    "mixed": presets.golay_type2_mixed,
    "golay_pair": _golay_pair,
    "untagged7": _untagged7,
    "untagged_gf3": _untagged_gf3,
    "gf11": _gf11,
    "irregular": _irregular,
    "classical4": lambda: presets.golay_classical_repetition(4),
    "companion": _companion,
    "blocked": _blocked,
}

ROWS = {
    "shift4": """\
singleton-block,n=23;r=1;k=12,12,7,satisfied,neither
griesmer-block,q=2;n=23;r=1;k=12;d_r=7,22,23,satisfied,
singleton-block,n=23;r=2;k=12,18,11,satisfied,neither
griesmer-block,q=2;n=23;r=2;k=12;d_r=11,51,69,satisfied,
singleton-block,n=23;r=3;k=12,20,13,satisfied,neither
griesmer-block,q=2;n=23;r=3;k=12;d_r=13,110,161,satisfied,
singleton-block,n=23;r=4;k=12,21,15,satisfied,neither
griesmer-block,q=2;n=23;r=4;k=12;d_r=15,244,345,satisfied,
type1-upper,n=23;k=12;r=1,12,7,satisfied,
type1-upper,n=23;k=12;r=2,13,11,satisfied,
type1-upper,n=23;k=12;r=3,14,13,satisfied,
type1-upper,n=23;k=12;r=4,15,15,satisfied,
cyclic-kappa-lower,n=23;m=4;kappa=11;d=7,(7, 11, 13, 14),(7, 11, 13, 15),satisfied,
""",
    "shift13": """\
singleton-block,n=23;r=1;k=12,12,7,satisfied,neither
griesmer-block,q=2;n=23;r=1;k=12;d_r=7,22,23,satisfied,
singleton-block,n=23;r=2;k=12,18,11,satisfied,neither
griesmer-block,q=2;n=23;r=2;k=12;d_r=11,51,69,satisfied,
singleton-block,n=23;r=3;k=12,20,13,satisfied,neither
griesmer-block,q=2;n=23;r=3;k=12;d_r=13,110,161,satisfied,
singleton-block,n=23;r=4;k=12,21,15,satisfied,neither
griesmer-block,q=2;n=23;r=4;k=12;d_r=15,244,345,satisfied,
singleton-block,n=23;r=5;k=12,108/5,16,satisfied,neither
griesmer-block,q=2;n=23;r=5;k=12;d_r=16,514,713,satisfied,
singleton-block,n=23;r=6;k=12,22,17,satisfied,neither
griesmer-block,q=2;n=23;r=6;k=12;d_r=17,1092,1449,satisfied,
singleton-block,n=23;r=7;k=12,156/7,18,satisfied,neither
griesmer-block,q=2;n=23;r=7;k=12;d_r=18,2306,2921,satisfied,
singleton-block,n=23;r=8;k=12,45/2,19,satisfied,neither
griesmer-block,q=2;n=23;r=8;k=12;d_r=19,4865,5865,satisfied,
singleton-block,n=23;r=9;k=12,68/3,20,satisfied,neither
griesmer-block,q=2;n=23;r=9;k=12;d_r=20,10238,11753,satisfied,
singleton-block,n=23;r=10;k=12,114/5,21,satisfied,neither
griesmer-block,q=2;n=23;r=10;k=12;d_r=21,21500,23529,satisfied,
singleton-block,n=23;r=11;k=12,252/11,21,satisfied,neither
griesmer-block,q=2;n=23;r=11;k=12;d_r=21,42998,47081,satisfied,
singleton-block,n=23;r=12;k=12,23,22,satisfied,neither
griesmer-block,q=2;n=23;r=12;k=12;d_r=22,90090,94185,satisfied,
singleton-block,n=23;r=13;k=12,300/13,23,satisfied,fractional-mds
type1-upper,n=23;k=12;r=1,12,7,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=2,13,11,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=3,14,13,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=4,15,15,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=5,16,16,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=6,17,17,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=7,18,18,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=8,19,19,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=9,20,20,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=10,21,21,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=11,22,21,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=12,23,22,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=13,24,23,not-applicable,preconditions not met
cyclic-kappa-lower,n=23;m=13;kappa=11;d=7,(7, 11, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23),(7, 11, 13, 15, 16, 17, 18, 19, 20, 21, 21, 22, 23),not-applicable,m=13 exceeds kappa=11
""",
    "mixed": """\
singleton-block,n=23;r=1;k=12,12,7,satisfied,neither
griesmer-block,q=2;n=23;r=1;k=12;d_r=7,22,23,satisfied,
singleton-block,n=23;r=2;k=12,18,12,satisfied,neither
griesmer-block,q=2;n=23;r=2;k=12;d_r=12,54,69,satisfied,
singleton-block,n=23;r=3;k=12,20,16,satisfied,neither
griesmer-block,q=2;n=23;r=3;k=12;d_r=16,132,161,satisfied,
singleton-block,n=23;r=4;k=12,21,19,satisfied,neither
griesmer-block,q=2;n=23;r=4;k=12;d_r=19,309,345,satisfied,
type1-upper,n=23;k=12;r=1,12,7,not-applicable,
type1-upper,n=23;k=12;r=2,13,12,not-applicable,
type1-upper,n=23;k=12;r=3,14,16,not-applicable,exceeds the Type-I-only bound
type1-upper,n=23;k=12;r=4,15,19,not-applicable,exceeds the Type-I-only bound
shdh-tradeoff-upper,q=2;m=4;d_m=19;d1=7,75,36,satisfied,
qc-type2-lower,n=23;m=4;d=7,((7, 11, 13, 14), (7, 14, 21, 28)),((7, 12, 16, 19), (7, 14, 24, 36)),not-applicable,cofactor degrees not strictly increasing
""",
    "golay_pair": """\
singleton-block,n=23;r=1;k=12,12,7,satisfied,neither
griesmer-block,q=2;n=23;r=1;k=12;d_r=7,22,23,satisfied,
singleton-block,n=23;r=2;k=12,18,11,satisfied,neither
griesmer-block,q=2;n=23;r=2;k=12;d_r=11,51,69,satisfied,
type1-upper,n=23;k=12;r=1,12,7,not-applicable,
type1-upper,n=23;k=12;r=2,13,11,not-applicable,
shdh-tradeoff-upper,q=2;m=2;d_m=11;d1=7,15,14,satisfied,
qc-type2-lower,n=23;m=2;d=7,((7, 11), (7, 14)),((7, 11), (7, 14)),satisfied,
""",
    "untagged7": """\
singleton-block,n=7;r=1;k=4,4,3,satisfied,neither
griesmer-block,q=2;n=7;r=1;k=4;d_r=3,7,7,satisfied,
singleton-block,n=7;r=2;k=4,6,5,satisfied,neither
griesmer-block,q=2;n=7;r=2;k=4;d_r=5,20,21,satisfied,
qc-type2-lower,n=7;m=2;d=3,((3, 5), (3, 6)),((3, 5), (3, 7)),not-applicable,cofactor shares a factor with (x^n-1)/g
""",
    "untagged_gf3": """\
singleton-block,n=8;r=1;k=5,4,2,satisfied,neither
griesmer-block,q=3;n=8;r=1;k=5;d_r=2,6,8,satisfied,
singleton-block,n=8;r=2;k=5,13/2,4,satisfied,neither
griesmer-block,q=3;n=8;r=2;k=5;d_r=4,20,32,satisfied,
qc-type2-lower,n=8;m=2;d=2,((2, 3), (2, 4)),((2, 4), (2, 6)),not-applicable,cofactor shares a factor with (x^n-1)/g; joint gcd not 1
""",
    "gf11": """\
singleton-block,n=10;r=1;k=6,5,5,tight,mds
griesmer-block,q=11;n=10;r=1;k=6;d_r=5,10,10,satisfied,
singleton-block,n=10;r=2;k=6,8,8,tight,mds
griesmer-block,q=11;n=10;r=2;k=6;d_r=8,100,120,satisfied,
singleton-block,n=10;r=3;k=6,9,9,tight,mds
griesmer-block,q=11;n=10;r=3;k=6;d_r=9,1200,1330,satisfied,
type1-upper,n=10;k=6;r=1,5,5,not-applicable,
type1-upper,n=10;k=6;r=2,6,8,not-applicable,exceeds the Type-I-only bound
type1-upper,n=10;k=6;r=3,7,9,not-applicable,exceeds the Type-I-only bound
shdh-tradeoff-upper,q=11;m=3;d_m=9;d1=5,439,20,satisfied,
qc-type2-lower,n=10;m=3;d=5,((5, 6, 7), (5, 10, 15)),((5, 8, 9), (5, 12, 20)),not-applicable,cofactor degrees not strictly increasing
""",
    "irregular": """\
singleton-block,n=23;r=1;k=12,12,7,satisfied,neither
griesmer-block,q=2;n=23;r=1;k=12;d_r=7,22,23,satisfied,
singleton-block,n=23;r=2;k=12,18,7,satisfied,neither
griesmer-block,q=2;n=23;r=2;k=12;d_r=7,35,69,satisfied,
singleton-block,n=23;r=3;k=12,20,11,satisfied,neither
griesmer-block,q=2;n=23;r=3;k=12;d_r=11,94,161,satisfied,
type1-upper,n=23;k=12;r=1,12,7,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=2,13,7,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=3,14,11,not-applicable,preconditions not met
cyclic-kappa-lower,n=23;m=3;kappa=11;d=7,(7, 11, 13),(7, 7, 11),not-applicable,not a cyclic-shift construction
""",
    "classical4": """\
singleton-block,n=23;r=1;k=12,12,7,satisfied,neither
griesmer-block,q=2;n=23;r=1;k=12;d_r=7,22,23,satisfied,
singleton-block,n=23;r=2;k=12,18,7,satisfied,neither
griesmer-block,q=2;n=23;r=2;k=12;d_r=7,35,69,satisfied,
singleton-block,n=23;r=3;k=12,20,7,satisfied,neither
griesmer-block,q=2;n=23;r=3;k=12;d_r=7,62,161,satisfied,
singleton-block,n=23;r=4;k=12,21,7,satisfied,neither
griesmer-block,q=2;n=23;r=4;k=12;d_r=7,117,345,satisfied,
type1-upper,n=23;k=12;r=1,12,7,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=2,13,7,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=3,14,7,not-applicable,preconditions not met
type1-upper,n=23;k=12;r=4,15,7,not-applicable,preconditions not met
cyclic-kappa-lower,n=23;m=4;kappa=11;d=7,(7, 11, 13, 14),(7, 7, 7, 7),not-applicable,not a cyclic-shift construction
""",
    "companion": """\
singleton-block,n=7;r=1;k=3,5,4,satisfied,neither
griesmer-block,q=2;n=7;r=1;k=3;d_r=4,7,7,satisfied,
singleton-block,n=7;r=2;k=3,13/2,6,satisfied,fractional-mds
griesmer-block,q=2;n=7;r=2;k=3;d_r=6,21,21,satisfied,
singleton-block,n=7;r=3;k=3,7,7,tight,mds
griesmer-block,q=2;n=7;r=3;k=3;d_r=7,49,49,satisfied,
type1-upper,n=7;k=3;r=1,5,4,not-applicable,
type1-upper,n=7;k=3;r=2,6,6,not-applicable,
type1-upper,n=7;k=3;r=3,7,7,not-applicable,
shdh-tradeoff-upper,q=2;m=3;d_m=7;d1=4,12,12,satisfied,
""",
    "blocked": """\
singleton-block,n=2;r=1;k=2,1,1,tight,mds
griesmer-block,q=3;n=2;r=1;k=2;d_r=1,2,2,satisfied,
singleton-block,n=2;r=2;k=2,2,2,tight,mds
griesmer-block,q=3;n=2;r=2;k=2;d_r=2,8,8,satisfied,
""",
}


@pytest.mark.parametrize("name", CODES)
def test_bound_suite_rows(name):
    grc = CODES[name]()
    rows = [rep.csv_row() for rep in bound_suite(grc, distance_profile(grc))]
    assert rows == ROWS[name].splitlines()


@pytest.mark.parametrize("name", ["mixed", "untagged7"])
def test_bound_suite_builds_no_code(name, monkeypatch):
    """The QC Type-II check reads the code it is handed: checking a QC
    code's bounds builds no second copy of it."""
    grc = CODES[name]()
    profile = distance_profile(grc)
    calls = []
    build = grc_module.from_qc_generators

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(grc_module, "from_qc_generators", counting)
    bound_suite(grc, profile)
    assert calls == []
