"""Golden output: ``fer_simulate`` CSV rows pinned as literals.

The determinism test in the acceptance suite compares two runs of the same
code with each other; these rows pin what the simulator outputs, so a change
to the decoder that alters any decision shows here.  The rows are the five
runs of ``grc demo-example1 --frames 300 --seed 3`` and the catalog row 5
[62,20] code on a BSC with an 8-bit CRC, as the benchmark's ``qc20-crc``
config runs it, at 20 frames.  Two q-ary configs pin the bounded draws: over
GF(3) the message digits have a nonzero rejection threshold, over GF(4) the
symbol shifts do.  A GF(3) CRC with a non-monic generator pins the
check digits and the accept test over an odd prime field.  A seed of five 32-bit words pins the seeding hash on a
seed too long to be padded to the pool.

``grc search`` output is pinned too: three CLI runs over GF(2), one at
n = 30, where x^30 - 1 has repeated factors, and one with m = 3, and three
GF(3) searches at the API, as (g, cofactors, sbdh, shdh) coefficient tuples.
"""

from __future__ import annotations

import pytest

from grclib import presets
from grclib.cli import main
from grclib.codetable import search_qc_type2
from grclib.codes import LinearCode
from grclib.decoding import AwgnBpskHard, Bsc, SimConfig, fer_simulate
from grclib.fields import field_create
from grclib.grc import from_qc_generators, type1_regular
from grclib.perms import Permutation
from grclib.poly import Poly

GF2 = field_create(2)
GF3 = field_create(3)
GF4 = field_create(2, 2)
HEXACODE = [[1, 0, 0, 1, 2, 2], [0, 1, 0, 2, 1, 2], [0, 0, 1, 2, 2, 1]]  # 2 = alpha

DEMO_ROWS = [
    "type1-shift,awgn-bpsk-hard,-5.0,1,300,103,0.343333,0,3",
    "type1-shift,awgn-bpsk-hard,-5.0,2,300,18,0.060000,0,3",
    "type1-shift,awgn-bpsk-hard,-5.0,3,300,12,0.040000,0,3",
    "type1-shift,awgn-bpsk-hard,-5.0,4,300,8,0.026667,0,3",
    "type2-mixed,awgn-bpsk-hard,-5.0,1,300,103,0.343333,0,3",
    "type2-mixed,awgn-bpsk-hard,-5.0,2,300,8,0.026667,0,3",
    "type2-mixed,awgn-bpsk-hard,-5.0,3,300,1,0.003333,0,3",
    "type2-mixed,awgn-bpsk-hard,-5.0,4,300,1,0.003333,0,3",
    "classical-repetition,awgn-bpsk-hard,-5.0,1,300,103,0.343333,0,3",
    "classical-repetition,awgn-bpsk-hard,-5.0,2,300,103,0.343333,0,3",
    "classical-repetition,awgn-bpsk-hard,-5.0,3,300,38,0.126667,0,3",
    "classical-repetition,awgn-bpsk-hard,-5.0,4,300,31,0.103333,0,3",
    "bsymbol,awgn-bpsk-hard,-5.0,1,300,103,0.343333,0,3",
    "bsymbol,awgn-bpsk-hard,-5.0,2,300,103,0.343333,0,3",
    "bsymbol,awgn-bpsk-hard,-5.0,3,300,103,0.343333,0,3",
    "bsymbol,awgn-bpsk-hard,-5.0,4,300,30,0.100000,0,3",
    "ir-linear,awgn-bpsk-hard,-5.0,1,300,235,0.783333,0,3",
    "ir-linear,awgn-bpsk-hard,-5.0,2,300,88,0.293333,0,3",
    "ir-linear,awgn-bpsk-hard,-5.0,3,300,16,0.053333,0,3",
    "ir-linear,awgn-bpsk-hard,-5.0,4,300,3,0.010000,0,3",
]

QC20_ROWS = [
    "qc20-crc,bsc,0.1,1,20,4,0.200000,0,3",
    "qc20-crc,bsc,0.1,2,20,0,0.000000,0,3",
]

QARY_ROWS = [
    "gf3-repetition,bsc,0.25,1,60,13,0.216667,0,8",
    "gf3-repetition,bsc,0.25,2,60,13,0.216667,0,8",
    "gf3-repetition,bsc,0.25,3,60,7,0.116667,0,8",
    "gf4-hexacode,bsc,0.3,1,200,24,0.120000,0,8",
    "gf4-hexacode,bsc,0.3,2,200,11,0.055000,0,8",
    "gf4-hexacode,bsc,0.3,3,200,8,0.040000,0,8",
]

GF3_CRC_ROWS = [
    "gf3-crc,bsc,0.3,1,120,41,0.341667,16,8",
    "gf3-crc,bsc,0.3,2,120,35,0.291667,19,8",
    "gf3-crc,bsc,0.3,3,120,27,0.225000,20,8",
]

LONG_SEED = 2**130 + 7
LONG_SEED_ROWS = [
    f"long-seed,awgn-bpsk-hard,-5.0,1,100,30,0.300000,0,{LONG_SEED}",
    f"long-seed,awgn-bpsk-hard,-5.0,2,100,10,0.100000,0,{LONG_SEED}",
    f"long-seed,awgn-bpsk-hard,-5.0,3,100,7,0.070000,0,{LONG_SEED}",
    f"long-seed,awgn-bpsk-hard,-5.0,4,100,5,0.050000,0,{LONG_SEED}",
]

# catalog row 5 under the interpretation the catalog verifier reports
ROW5_GENS = (
    "x^11+x^10+x^8+x^6+x^2+1",
    "x^29+x^26+x^24+x^22+x^20+x^18+x^17+x^16+x^15+x^14+x^13+x^12+x^9+x^7+x^6+x^3+x^2+x",
)


def test_demo_example1_rows():
    c1 = presets.golay_type1_shift(4)
    c2 = presets.golay_type2_mixed()
    runs = [
        ("type1-shift", c1, "multiround"),
        ("type2-mixed", c2, "multiround"),
        ("classical-repetition", presets.golay_classical_repetition(4), "repetition"),
        ("bsymbol", c1, "bsymbol"),
        ("ir-linear", c2, "ir"),
    ]
    rows = []
    for code_id, grc, scheme in runs:
        cfg = SimConfig(grc=grc, channel=AwgnBpskHard(-5.0), frames=300, seed=3,
                        max_depth=4, scheme=scheme, code_id=code_id)
        rows += fer_simulate(cfg).csv_rows()
    assert rows == DEMO_ROWS


def test_qc20_crc_rows():
    grc = from_qc_generators(31, [Poly.parse(GF2, g) for g in ROW5_GENS])
    cfg = SimConfig(grc=grc, channel=Bsc(0.1), frames=20, seed=3, max_depth=2,
                    crc=Poly.parse(GF2, "x^8+x^2+x+1"), code_id="qc20-crc")
    assert fer_simulate(cfg).csv_rows() == QC20_ROWS


def test_qary_rows():
    gf3 = type1_regular(presets.ternary_golay(), Permutation.cyclic_shift(11), 3)
    gf4 = type1_regular(LinearCode.from_rows(GF4, HEXACODE), Permutation.cyclic_shift(6), 3)
    cfgs = [
        SimConfig(grc=gf3, channel=Bsc(0.25), frames=60, seed=8, max_depth=3,
                  scheme="repetition", code_id="gf3-repetition"),
        SimConfig(grc=gf4, channel=Bsc(0.3), frames=200, seed=8, max_depth=3,
                  code_id="gf4-hexacode"),
    ]
    assert [row for cfg in cfgs for row in fer_simulate(cfg).csv_rows()] == QARY_ROWS


def test_gf3_crc_rows():
    grc = type1_regular(presets.ternary_golay(), Permutation.cyclic_shift(11), 3)
    cfg = SimConfig(grc=grc, channel=Bsc(0.3), frames=120, seed=8, max_depth=3,
                    crc=Poly.parse(GF3, "2x^2+x+1"), code_id="gf3-crc")
    assert fer_simulate(cfg).csv_rows() == GF3_CRC_ROWS


def test_long_seed_rows():
    cfg = SimConfig(grc=presets.golay_type1_shift(4), channel=AwgnBpskHard(-5.0), frames=100,
                    seed=LONG_SEED, max_depth=4, code_id="long-seed")
    assert fer_simulate(cfg).csv_rows() == LONG_SEED_ROWS


SEARCH_ROWS = {
    "--n 31 --k 6 --budget 60 --seed 7": [
        "31,6,263CADD,1;31087,15|23,15|30",
        "31,6,367A571,657;0F99F649,15|23,15|30",
        "31,6,2ED4F19,9DE1;0ACAD,15|23,15|30",
        "31,6,367A571,1;115CE21,15|23,15|30",
        "31,6,32DEA27,1;5C1,15|23,15|30",
        "31,6,32DEA27,A7;F29B1,15|23,15|30",
        "31,6,367A571,057;1D202C7,15|23,15|30",
        "31,6,3915ED3,0D1D;21CB3F3,15|23,15|30",
        "31,6,263CADD,B;11EF5C77,15|23,15|30",
        "31,6,2ED4F19,D27;1A363FDD,15|23,15|30",
        "31,6,32DEA27,0B;182B3B,15|23,15|30",
        "31,6,263CADD,31;15AF3,15|23,15|30",
        "31,6,2ED4F19,25;A643,15|23,15|30",
        "31,6,367A571,7;12DD549F,15|23,15|30",
        "31,6,32DEA27,0B;622D,15|23,15|30",
        "31,6,367A571,1;B3,15|23,15|30",
        "31,6,23A979B,1;120637,15|23,15|30",
        "31,6,263CADD,15;117,15|23,15|30",
        "31,6,3915ED3,B;0C1,15|23,15|30",
    ],
    "--n 30 --k 12 --budget 80 --seed 4": [
        "30,12,62F1F,2DD;345EBD,8|18,8|20",
        "30,12,5BD6F,1E0B0F;0C99B7,8|16,8|22",
    ],
    "--n 15 --k 7 --m 3 --budget 60 --seed 9": [
        "15,7,1D1,1;1A3;0717,5|8|11,5|10|15",
    ],
}

# (n, k, budget, seed, m) -> the search's candidates over GF(3)
GF3_SEARCHES = {
    (13, 7, 80, 5, 2): [
        ((1, 0, 2, 2, 2, 0, 1), ((0, 1, 1, 2), (1, 0, 2, 2, 1, 1)), (5, 9), (5, 14)),
    ],
    (13, 7, 60, 1, 3): [
        ((1, 1, 2, 0, 2, 1, 1),
         ((0, 0, 0, 1, 1), (1, 1, 0, 1, 2, 0, 2), (2, 1, 2, 2, 1, 2, 0, 0, 2, 1)),
         (5, 8, 11), (5, 12, 20)),
        ((1, 0, 2, 2, 2, 0, 1),
         ((0, 1), (0, 2, 1, 0, 0, 1, 1), (2, 0, 0, 2, 0, 1, 1, 2, 1, 2, 1, 2)),
         (5, 8, 11), (5, 12, 20)),
        ((1, 1, 0, 0, 1, 0, 1),
         ((1, 0, 1), (1, 2, 2, 1, 0, 2, 1, 2), (0, 1, 2, 2, 0, 0, 2, 1, 2, 1)),
         (4, 9, 11), (4, 11, 18)),
        ((1, 2, 2, 2, 1, 2, 1),
         ((1,), (1, 0, 0, 1, 0, 2), (0, 2, 2, 0, 2, 0, 2)),
         (4, 8, 11), (4, 11, 21)),
        ((1, 2, 2, 2, 1, 2, 1),
         ((0, 2, 2), (2, 1, 1, 2, 2, 1, 2, 1, 0, 0, 2), (2, 1, 1, 1, 2, 1, 1, 2, 2, 2, 1, 1)),
         (4, 8, 11), (4, 11, 21)),
        ((1, 1, 0, 0, 1, 0, 1),
         ((0, 0, 2), (1, 1, 1, 0, 0, 2, 0, 2), (0, 0, 0, 1, 1, 1, 0, 0, 1)),
         (4, 8, 11), (4, 11, 21)),
        ((1, 0, 1, 0, 0, 1, 1),
         ((0, 1, 0, 2, 1), (0, 0, 0, 0, 1, 1), (1, 2, 0, 2, 0, 0, 2, 0, 1, 2)),
         (4, 8, 10), (4, 12, 21)),
    ],
    (26, 13, 16, 2, 2): [
        ((1, 0, 1, 1, 0, 2, 2, 1, 0, 2, 2, 1, 2, 1),
         ((2,), (1, 2, 2, 2, 0, 1, 1, 2, 2, 0, 1, 0, 0, 2, 2, 2)),
         (8, 16), (8, 22)),
    ],
}


@pytest.mark.parametrize("flags", list(SEARCH_ROWS), ids=["n31-k6", "n30-k12", "n15-k7-m3"])
def test_search_rows(capsys, flags):
    assert main(["search", *flags.split()]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["n,k,g_hex,cofactor_hexes,sbdh,shdh", *SEARCH_ROWS[flags]]


@pytest.mark.parametrize("params", list(GF3_SEARCHES), ids=["n13-k7", "n13-k7-m3", "n26-k13"])
def test_gf3_search_candidates(params):
    n, k, budget, seed, m = params
    cands = search_qc_type2(n, k, budget, seed, m=m, field=GF3)
    got = [(c.g.coeffs, tuple(f.coeffs for f in c.cofactors), c.sbdh, c.shdh) for c in cands]
    assert got == GF3_SEARCHES[params]
    assert all(c.n == n for c in cands)
