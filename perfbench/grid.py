"""Workload `grid`: exact distances on paths the catalog never takes.

Three seeded Type-I codes, one per field path of the enumeration kernels
that grclib gets right today:

- GF(3), k = 13, m = 4, n = 20 (int16 symbols, m = 4 subset fold);
- GF(7), k = 8, m = 2, n = 16;
- GF(2), k = 20, m = 4, n = 32 (packed words, m = 4).

Each gets ``distance_profile``, the Hamming ``min_distance`` and the
block-metric ``weight_distribution``.  Catalog row 8 (k = 26) adds the
m = 1 and m = 2 ``min_distance`` sweeps.  A case's seed picks the base
generator [I | R] and the block permutations.

Results are checked against the brute-force enumeration in reference.py,
run after the timed passes, and row 8 against its listed distances.

Two probes run once in the traced run and are reported as per-layer flags,
not as workload operations, because grclib fails them today:

- the ROADMAP repro ``from_qc_generators(65, [g, g])`` with
  g = (x^65-1)/(x+1) raises (the profile path stops at 64 symbols per
  block);
- a seeded GF(4) code, k = 11, m = 2, n = 20 (add/multiply table lookups),
  gets a wrong block weight distribution, and on some seeds a wrong
  Hamming distance: the sweep over high message digits steps by repeated
  row addition, which reaches every multiple of a row only in a prime field.
"""

from __future__ import annotations

import random
import statistics
import tracemalloc
from dataclasses import dataclass
from typing import Any, Callable

import bench
import reference
from spans import Summary, Tracer

# catalog row 8 under the interpretation verify_entry reports (joint, pads 3/3)
ROW8_GENS = (
    "x^28+x^27+x^26+x^25+x^24+x^23+x^22+x^20+x^18+x^16+x^15+x^14+x^13+x^10+x^9+x^8"
    "+x^7+x^6+x^4+x^2+1",
    "x^28+x^24+x^23+x^22+x^21+x^20+x^19+x^16+x^15+x^14+x^11+x^4+x^3+1",
)
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 7: (7, 1)}


@dataclass(frozen=True)
class Case:
    tag: str
    q: int
    n: int
    k: int
    m: int


CASES = (
    Case("gf3", 3, 20, 13, 4),
    Case("gf7", 7, 16, 8, 2),
    Case("gf2", 2, 32, 20, 4),
)
GF4_PROBE = Case("gf4", 4, 20, 11, 2)
KERNELS = ("subset_minima", "min_block_distance", "weight_histogram")
ROW8_TAGS = ("row8-m1", "row8-m2")


def seeded_type1(grclib: Any, case: Case, seed: int) -> Any:
    rng = random.Random(f"{seed}/{case.tag}")
    field = grclib.field_create(*FIELDS[case.q])
    rows = [
        [int(i == j) for j in range(case.k)]
        + [rng.randrange(case.q) for _ in range(case.n - case.k)]
        for i in range(case.k)
    ]
    perms = []
    for _ in range(case.m - 1):
        images = list(range(1, case.n + 1))
        rng.shuffle(images)
        perms.append(grclib.Permutation(tuple(images)))
    return grclib.type1(grclib.LinearCode.from_rows(field, rows), perms)


class Grid:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.results: list[tuple[str, str, Any]] = []
        self.peaks: dict[tuple[str, str], int] = {}

    def setup(self, grclib: Any) -> None:
        self.grclib = grclib
        gf2 = grclib.field_create(2)
        self.codes = {c.tag: seeded_type1(grclib, c, self.seed) for c in CASES}
        self.row8 = grclib.from_qc_generators(31, [grclib.Poly.parse(gf2, g) for g in ROW8_GENS])
        entry = next(e for e in grclib.load_table() if e.no == 8)
        self.row8_listed = {"row8-m1": entry.ud2, "row8-m2": entry.d2}

    def ops(self) -> list[tuple[str, str, Callable[[], Any]]]:
        """(case tag, kernel, call) for one pass over the input set."""
        g = self.grclib
        out = []
        for c in CASES:
            grc = self.codes[c.tag]
            full = grc.full_code()
            out.append((c.tag, "subset_minima", lambda grc=grc: g.distance_profile(grc)))
            out.append((c.tag, "min_block_distance", full.min_distance))
            out.append((c.tag, "weight_histogram",
                        lambda full=full, m=c.m: full.weight_distribution(g.Block(m))))
        row8 = self.row8.full_code()
        out.append(("row8-m1", "min_block_distance", row8.min_distance))
        out.append(("row8-m2", "min_block_distance", lambda: row8.min_distance(g.Block(2))))
        return out

    def run_pass(self, i: int, tracer: Tracer) -> list[tuple[str, str, Any]]:
        out = []
        for tag, kernel, call in self.ops():
            if tracemalloc.is_tracing():
                tracemalloc.reset_peak()
            try:
                with tracer.root(tag):
                    value = call()
            except Exception as exc:  # counted as a failed operation
                value = exc
            if tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1]
                self.peaks[(tag, kernel)] = max(peak, self.peaks.get((tag, kernel), 0))
            out.append((tag, kernel, value))
        return out

    def check(self, gate: bench.Gate, results: list) -> None:
        self.results.extend(results)  # judged in finish(), once the reference exists

    def finish(self, gate: bench.Gate) -> None:
        exact = {
            c.tag: reference.enumerate_exact(c.q, self.codes[c.tag].gen.rows(), c.m) for c in CASES
        }
        for tag, kernel, value in self.results:
            if isinstance(value, Exception):
                gate.check(False, f"grid {tag} {kernel} raised {value!r}")
                continue
            if tag in self.row8_listed:
                got, want = value, self.row8_listed[tag]
            elif kernel == "subset_minima":
                got, want = (value.sbdh, value.shdh), (exact[tag].sbdh, exact[tag].shdh)
            elif kernel == "min_block_distance":
                got, want = value, exact[tag].hamming
            else:
                got = value.as_dict()
                want = {w: c for w, c in enumerate(exact[tag].block_hist) if c}
            gate.check(got == want,
                       f"grid {tag} {kernel}: got {_short(got)}, reference {_short(want)}")

    def _probe_n65(self) -> bool:
        g = self.grclib
        gf2 = g.field_create(2)
        gen = g.Poly.xn_minus_1(gf2, 65) // g.Poly.parse(gf2, "x+1")
        probe = g.from_qc_generators(65, [gen, gen])
        want = reference.enumerate_exact(2, probe.gen.rows(), 2)
        try:
            prof = g.distance_profile(probe)
        except ValueError as exc:
            print(f"grid n=65 probe: distance_profile raised {exc!r}")
            return False
        ok = (prof.sbdh, prof.shdh) == (want.sbdh, want.shdh)
        print(f"grid n=65 probe: profile {prof}, {'matches' if ok else 'differs from'} reference")
        return ok

    def _probe_gf4(self) -> bool:
        g, c = self.grclib, GF4_PROBE
        code = seeded_type1(g, c, self.seed)
        full = code.full_code()
        prof = g.distance_profile(code)
        exact = reference.enumerate_exact(c.q, code.gen.rows(), c.m)
        got = {
            "profile": (prof.sbdh, prof.shdh),
            "min_distance": full.min_distance(),
            "block weights": full.weight_distribution(g.Block(c.m)).as_dict(),
        }
        want = {
            "profile": (exact.sbdh, exact.shdh),
            "min_distance": exact.hamming,
            "block weights": {w: n for w, n in enumerate(exact.block_hist) if n},
        }
        for what in got:
            same = got[what] == want[what]
            print(f"grid GF(4) probe: {what} {'matches' if same else 'differs from'} reference"
                  + ("" if same else f": got {_short(got[what])}, reference {_short(want[what])}"))
        return got == want

    def describe(self, outputs: list) -> str:
        return f"{len(outputs)} passes of {len(self.ops())} operations"

    # -- tracing -----------------------------------------------------------------

    def instrument(self, tracer: Tracer) -> None:
        import grclib.kernels as kernels

        for kernel in KERNELS:
            tracer.patch(kernels, kernel, "kernels." + kernel)
        tracemalloc.start()
        tracer.on_restore(tracemalloc.stop)

    @staticmethod
    def layer_names() -> list[tuple[str, str]]:
        names = [(f"grid.{tag}.kernels.{kernel}.mcw_per_s", "Mcw/s") for tag, kernel in _measured()]
        names += [(f"grid.{tag}.kernels.{_peak_group(k)}.peak_mb", "MB") for tag, k in _measured()
                  if k != "weight_histogram"]
        names += [("grid.n65_probe.ok", "bool"), ("grid.gf4_probe.ok", "bool")]
        return names

    def layers(self, s: Summary, traced: list, plain: list) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        q_k = {c.tag: c.q**c.k for c in CASES} | {t: 2**self.row8.dim for t in ROW8_TAGS}
        for tag, kernel in _measured():
            busy = s.incl_s("kernels." + kernel, tag)
            out[f"grid.{tag}.kernels.{kernel}.mcw_per_s"] = (
                q_k[tag] * len(traced) / busy / 1e6, "Mcw/s")
            name = f"grid.{tag}.kernels.{_peak_group(kernel)}.peak_mb"
            peak = self.peaks.get((tag, kernel), 0) / 2**20
            out[name] = (max(peak, out.get(name, (0.0, ""))[0]), "MB")
        out["grid.n65_probe.ok"] = (float(self._probe_n65()), "bool")
        out["grid.gf4_probe.ok"] = (float(self._probe_gf4()), "bool")
        wall = statistics.median([dt for dt, _ in traced])
        attributed = sum(s.incl_s("kernels." + kernel) for kernel in KERNELS) / len(traced)
        out["trace.unattributed_frac"] = (1.0 - attributed / wall, "ratio")
        return out


def _peak_group(kernel: str) -> str:
    """min_block_distance and weight_histogram share one block-weight sweep,
    so their peaks are reported together."""
    return "subset_minima" if kernel == "subset_minima" else "block_weights"


def _measured() -> list[tuple[str, str]]:
    row8 = [(t, "min_block_distance") for t in ROW8_TAGS]
    return [(c.tag, k) for c in CASES for k in KERNELS] + row8


def _short(value: Any) -> str:
    text = str(value)
    return text if len(text) <= 120 else text[:117] + "..."
