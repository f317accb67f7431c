"""Golden output: ``fer_simulate`` CSV rows pinned as literals.

The determinism test in the acceptance suite compares two runs of the same
code with each other; these rows pin what the simulator outputs, so a change
to the decoder that alters any decision shows here.  The rows are the five
runs of ``grc demo-example1 --frames 300 --seed 3`` and the catalog row 5
[62,20] code on a BSC with an 8-bit CRC, as the benchmark's ``qc20-crc``
config runs it, at 20 frames.
"""

from __future__ import annotations

from grclib import presets
from grclib.decoding import AwgnBpskHard, Bsc, SimConfig, fer_simulate
from grclib.fields import field_create
from grclib.grc import from_qc_generators
from grclib.poly import Poly

GF2 = field_create(2)

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
