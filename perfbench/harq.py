"""Workloads `harq` and `harq-crc`: seeded FER simulation with
``fer_simulate`` in two cost regimes.

`harq` runs the five runs of ``grc demo-example1`` (Golay codes, k = 12,
m = 4, AWGN at -5 dB, genie verifier); their frames cost about 150 us each,
mostly per-frame Python.  `harq-crc` runs catalog row 5, the [62,20] code
read the way the catalog verifier reads it, on a BSC with p = 0.1 at depth
2 with an 8-bit CRC; its frames are bound by the 2^20-row distance kernel.

A pass simulates a fixed batch of frames for every config of the workload.
Pass i of a run with seed s uses simulation seed s * 100000 + i, so every
batch draws fresh noise and the same seed repeats the same inputs.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import bench
import checks
from spans import Summary, Tracer

REFERENCE_FILE = Path(__file__).resolve().parent / "fer_reference.json"
# catalog row 5 under the interpretation verify_entry reports (cof2, pads 0/3)
ROW5_GENS = (
    "x^11+x^10+x^8+x^6+x^2+1",
    "x^29+x^26+x^24+x^22+x^20+x^18+x^17+x^16+x^15+x^14+x^13+x^12+x^9+x^7+x^6+x^3+x^2+x",
)
ROW5_LISTED = (6, 14, 18)
CRC = "x^8+x^2+x+1"


@dataclass(frozen=True)
class Spec:
    name: str
    code: str  # key into the workload's codes
    scheme: str
    frames: int  # per pass
    depth: int
    channel: tuple[str, float]
    crc: str | None = None
    kinds: tuple[str, ...] = ("hamming", "block")
    rounds: tuple[int, ...] = (1, 2, 3, 4)


AWGN = ("awgn", -5.0)
GOLAY = (
    Spec("type1-shift", "type1", "multiround", 300, 4, AWGN, kinds=("hamming", "block", "chase")),
    Spec("type2-mixed", "type2", "multiround", 300, 4, AWGN),
    Spec("repetition", "repetition", "repetition", 300, 4, AWGN, kinds=("hamming", "chase")),
    Spec("bsymbol", "type1", "bsymbol", 300, 4, AWGN, kinds=("hamming", "block", "chase"),
         rounds=(1, 4)),
    Spec("ir-linear", "type2", "ir", 300, 4, AWGN, kinds=("hamming",)),
)
QC20 = (
    Spec("qc20-crc", "qc20", "multiround", 100, 2, ("bsc", 0.1), crc=CRC, rounds=(1, 2)),
)


def build_codes(grclib: Any, specs: tuple[Spec, ...]) -> dict[str, Any]:
    from grclib import presets

    makers = {
        "type1": lambda: presets.golay_type1_shift(4),
        "type2": presets.golay_type2_mixed,
        "repetition": lambda: presets.golay_classical_repetition(4),
        "qc20": lambda: grclib.from_qc_generators(
            31, [grclib.Poly.parse(grclib.field_create(2), g) for g in ROW5_GENS]
        ),
    }
    return {key: makers[key]() for key in {s.code for s in specs}}


def sim_config(grclib: Any, spec: Spec, grc: Any, frames: int, seed: int, threads: int = 1) -> Any:
    kind, value = spec.channel
    channel = grclib.AwgnBpskHard(value) if kind == "awgn" else grclib.Bsc(value)
    crc = None if spec.crc is None else grclib.Poly.parse(grclib.field_create(2), spec.crc)
    return grclib.SimConfig(
        grc=grc, channel=channel, frames=frames, seed=seed, max_depth=spec.depth,
        scheme=spec.scheme, crc=crc, threads=threads, code_id=spec.name,
    )


class Harq:
    def __init__(self, seed: int, specs: tuple[Spec, ...]) -> None:
        self.seed = seed
        self.specs = specs
        self.reference = json.loads(REFERENCE_FILE.read_text())

    def setup(self, grclib: Any) -> None:
        """Codes and their decode tables, used by the clean-frame check."""
        self.grclib = grclib
        self.codes = build_codes(grclib, self.specs)
        self.decoders = {key: grclib.GrcDecoder(grc) for key, grc in self.codes.items()}
        self.errors = {s.name: [0] * s.depth for s in self.specs}
        self.frames = {s.name: 0 for s in self.specs}

    def run_pass(self, i: int, tracer: Tracer) -> list[tuple[Spec, Any, float]]:
        out = []
        for spec in self.specs:
            cfg = sim_config(self.grclib, spec, self.codes[spec.code], spec.frames,
                             self.seed * 100000 + i)
            t0 = time.perf_counter()
            try:
                with tracer.root(spec.name):
                    res = self.grclib.fer_simulate(cfg)
            except Exception as exc:  # counted as a failed operation
                res = exc
            out.append((spec, res, time.perf_counter() - t0))
        return out

    def check(self, gate: bench.Gate, batches: list) -> None:
        for spec, res, _ in batches:
            if isinstance(res, Exception):
                gate.check(False, f"{spec.name}: fer_simulate raised {res!r}")
                continue
            errors = [s.frame_errors for s in res.per_depth]
            false = [s.false_accepts for s in res.per_depth]
            ok = checks.errors_monotone(errors) and (spec.crc is not None or not any(false))
            gate.check(ok, f"{spec.name}: errors by depth {errors}, false accepts {false}")
            self.frames[spec.name] += spec.frames
            for d, e in enumerate(errors):
                self.errors[spec.name][d] += e

    def finish(self, gate: bench.Gate) -> None:
        for spec in self.specs:
            ref = self.reference[spec.name]
            n = self.frames[spec.name]
            ok = all(
                checks.fer_in_band(e, n, r, ref["frames"])
                for e, r in zip(self.errors[spec.name], ref["errors"])
            )
            gate.check(ok, f"{spec.name}: errors {self.errors[spec.name]} in {n} frames "
                           f"outside the band of reference {ref['errors']} in {ref['frames']}")
            gate.check(self._clean_frame(spec), f"{spec.name}: noiseless frame not decoded")
        if "qc20" in self.codes:
            prof = self.grclib.distance_profile(self.codes["qc20"])
            got = (min(prof.sbdh[0], prof.shdh[0]), prof.sbdh[1], prof.shdh[1])
            gate.check(checks.distances_match(got, ROW5_LISTED),
                       f"qc20-crc code has (d1, d2, ud2) {got}, catalog row 5 lists {ROW5_LISTED}")

    def _clean_frame(self, spec: Spec) -> bool:
        """A noiseless frame is accepted in round 1 with the sent message."""
        g = self.grclib
        grc = self.codes[spec.code]
        k = grc.dim
        payload = tuple((7 * j + self.seed) % 2 for j in range(k))
        if spec.crc is None:
            message = payload
            verifier = g.GenieVerifier(message)
        else:
            verifier = g.CrcVerifier(g.Poly.parse(g.field_create(2), spec.crc))
            message = verifier.attach(payload[: k - verifier.ncheck])
        received = grc.full_code().encode(message)
        res = g.multi_round_decode(grc, received, spec.depth, verifier,
                                   decoder=self.decoders[spec.code], scheme=spec.scheme)
        return res.message == message and res.rounds_used == 1

    def describe(self, outputs: list) -> str:
        return f"{len(outputs)} passes of " + ", ".join(
            f"{s.name} x{s.frames}" for s in self.specs
        ) + " frames"

    # -- tracing -----------------------------------------------------------------

    def instrument(self, tracer: Tracer) -> None:
        import grclib
        import grclib.codes as codes
        import grclib.decoding as decoding
        import grclib.kernels as kernels

        judged = {}  # the candidate the next verifier call judges (one thread)

        def candidate(t: Tracer, args: tuple, kwargs: dict) -> None:
            judged["cand"] = args[2]
            t.count("candidates." + args[2].kind)

        def accepted(t: Tracer, args: tuple, kwargs: dict, result: bool) -> None:
            if result:
                t.count(f"accepts.r{judged['cand'].round}")

        tracer.patch(grclib, "fer_simulate", "decoding.fer_simulate")
        tracer.patch(decoding, "rng_for", "decoding.rng_for")
        tracer.patch(decoding, "transmit", "decoding.transmit")
        tracer.patch(codes.LinearCode, "encode", "codes.encode")
        tracer.patch(decoding.GrcDecoder, "candidate_message", "decoding.candidate_message",
                     before=candidate)
        tracer.patch(decoding.GenieVerifier, "accepts", "decoding.verifier", after=accepted)
        tracer.patch(decoding.CrcVerifier, "accepts", "decoding.verifier", after=accepted)
        tracer.patch(decoding.CrcVerifier, "attach", "decoding.verifier")
        for fn in ("hamming_distances", "block_distances", "build_table"):
            tracer.patch(kernels, fn, "kernels." + fn)

    @staticmethod
    def layer_names() -> list[tuple[str, str]]:
        names = []
        for s in GOLAY + QC20:
            c = s.name
            names.append((f"{c}.frames_per_s", "1/s"))
            names += [(f"{c}.{layer}.us_per_frame", "us") for layer in _timed_layers(s)]
            names.append((f"{c}.decoding.candidate_message.self_us_per_frame", "us"))
            names.append((f"{c}.unattributed_us_per_frame", "us"))
            for kind in s.kinds:
                names.append((f"{c}.candidates_per_frame.{kind}", "1/frame"))
            for r in s.rounds:
                names.append((f"{c}.accepts_per_frame.r{r}", "1/frame"))
            if s.crc is not None:
                names.append((f"{c}.false_accepts_per_kframe", "1/kframe"))
        return names

    def layers(self, s: Summary, traced: list, plain: list) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        npass = len(traced)
        for spec in self.specs:
            c = spec.name
            frames = spec.frames * npass
            rates = [spec.frames / dt
                     for _, batches in plain for sp, _, dt in batches if sp is spec]
            out[f"{c}.frames_per_s"] = (statistics.median(rates), "1/s")

            def per_frame(name: str) -> float:
                return s.self_s(name, c) / frames * 1e6

            for layer in _timed_layers(spec):
                out[f"{c}.{layer}.us_per_frame"] = (per_frame(layer), "us")
            out[f"{c}.decoding.candidate_message.self_us_per_frame"] = (
                per_frame("decoding.candidate_message"), "us")
            # frame loop, message draws and candidate ordering inside fer_simulate
            out[f"{c}.unattributed_us_per_frame"] = (
                per_frame("decoding.fer_simulate") + per_frame("root"), "us")
            parts = sum(v for k, (v, u) in out.items() if k.startswith(c + ".") and u == "us")
            print(f"{c}: traced {s.wall_s(c) / frames * 1e6:.1f} us/frame = "
                  f"{parts:.1f} us/frame over the listed layers and the unattributed rest")
            for kind in spec.kinds:
                out[f"{c}.candidates_per_frame.{kind}"] = (
                    s.count("candidates." + kind, c) / frames, "1/frame")
            for r in spec.rounds:
                out[f"{c}.accepts_per_frame.r{r}"] = (
                    s.count(f"accepts.r{r}", c) / frames, "1/frame")
            if spec.crc is not None:
                fa = sum(res.per_depth[-1].false_accepts
                         for _, batches in plain + traced for sp, res, _ in batches
                         if sp is spec and not isinstance(res, Exception))
                out[f"{c}.false_accepts_per_kframe"] = (
                    fa / (spec.frames * (len(plain) + npass)) * 1000, "1/kframe")
        loop = s.self_s("decoding.fer_simulate") + s.self_s("root")
        out["trace.unattributed_frac"] = (loop / s.wall_s(), "ratio")
        return out


def _timed_layers(spec: Spec) -> list[str]:
    """Spans reported per frame as their self time; block_distances only
    where the scheme decodes in the block metric."""
    block = ["kernels.block_distances"] if "block" in spec.kinds else []
    return ["decoding.rng_for", "decoding.transmit", "codes.encode",
            "kernels.hamming_distances", *block, "decoding.verifier", "kernels.build_table"]
