"""Workloads `catalog` and `catalog-2t`: verify the bundled two-block QC
catalog end to end with ``verify_table``, at threads=1 and threads=2.

The input set is every bundled row with k <= 26 (41 rows) at cap 26.  Rows
with k > 26 get no verdict from the package today and are left out.

At threads=1 the seed permutes the row order, with a fresh permutation for
each pass; the order does not change the work.  At threads=2 the rows go in
catalog order, as ``grc verify-table --threads 2`` sends them: the thread
pool takes rows in order, so the wall time depends on where the largest
rows fall (6.5 to 8.3 s over random orders in sizing), and a seeded order
would turn that into run-to-run spread.  The seed does not change the
inputs of `catalog-2t`.
"""

from __future__ import annotations

import random
import statistics
from typing import Any

import bench
import checks
from spans import Summary, Tracer

CAP = 26
EXPECTED_ROWS = 41


class Catalog:
    def __init__(self, seed: int, threads: int) -> None:
        self.seed = seed
        self.threads = threads

    def setup(self, grclib: Any) -> None:
        self.grclib = grclib
        self.rows = [e for e in grclib.load_table() if e.k <= CAP]
        if len(self.rows) != EXPECTED_ROWS:
            raise bench.BenchError(
                f"expected {EXPECTED_ROWS} rows with k <= {CAP}, got {len(self.rows)}"
            )

    def run_pass(self, i: int, tracer: Tracer) -> list:
        order = list(self.rows)
        if self.threads == 1:
            random.Random(f"{self.seed}/{i}").shuffle(order)
        with tracer.root("pass"):
            return self.grclib.verify_table(order, cap=CAP, threads=self.threads)

    def check(self, gate: bench.Gate, reports: list) -> None:
        for r in reports:
            e = r.entry
            computed = (
                None if r.computed_d1 is None else (r.computed_d1, r.computed_d2, r.computed_ud2)
            )
            gate.check(
                r.status == "verified"
                and checks.distances_match(computed, (e.d1, e.d2, e.ud2)),
                f"catalog row {e.no}: {r.status}, computed {computed}, "
                f"listed {(e.d1, e.d2, e.ud2)}",
            )

    def finish(self, gate: bench.Gate) -> None:
        pass

    def describe(self, outputs: list) -> str:
        tried = sum(len(r.attempted) for r in outputs[0])
        return (f"{len(outputs)} passes of {len(self.rows)} rows at threads={self.threads}, "
                f"{tried} interpretations per pass")

    def instrument(self, tracer: Tracer) -> None:
        """Spans around the calls verify_table makes into each layer."""
        import grclib.codetable as codetable
        import grclib.grc as grc
        import grclib.kernels as kernels
        import grclib.poly as poly

        def count_codewords(t: Tracer, args: tuple, kwargs: dict) -> None:
            field, rows = args[0], args[1]
            t.count("kernels.subset_minima.codewords", field.q ** len(rows))

        tracer.patch(codetable, "verify_entry", "codetable.verify_entry")
        tracer.patch(codetable, "from_qc_generators", "grc.from_qc_generators")
        tracer.patch(codetable, "distance_profile", "grc.distance_profile")
        tracer.patch(kernels, "subset_minima", "kernels.subset_minima", before=count_codewords)
        for owner in (codetable, grc):
            for fn in ("poly_gcd", "poly_gcd_many"):
                tracer.patch(owner, fn, "poly." + fn)
        for op in ("__mul__", "__mod__", "__floordiv__", "__divmod__"):
            tracer.patch(poly.Poly, op, "poly.Poly." + op.strip("_"))

    @staticmethod
    def layer_names() -> list[tuple[str, str]]:
        return [
            ("kernels.subset_minima.busy_s", "s"),
            ("kernels.subset_minima.codewords", "count"),
            ("kernels.subset_minima.mcw_per_s", "Mcw/s"),
            ("codetable.interpretations", "count"),
            ("grc.from_qc_generators.self_s", "s"),
            ("grc.distance_profile.self_s", "s"),
            ("poly.self_s", "s"),
        ]

    def layers(self, s: Summary, traced: list, plain: list) -> dict[str, tuple[float, str]]:
        passes = len(traced)
        wall = statistics.median([dt for dt, _ in traced])
        busy = s.incl_s("kernels.subset_minima") / passes
        codewords = s.count("kernels.subset_minima.codewords") / passes
        out = {
            "kernels.subset_minima.busy_s": (busy, "s"),
            "kernels.subset_minima.codewords": (codewords, "count"),
            "kernels.subset_minima.mcw_per_s": (codewords / busy / 1e6, "Mcw/s"),
            "codetable.interpretations": (s.ncalls("grc.distance_profile") / passes, "count"),
            "grc.from_qc_generators.self_s": (s.self_s("grc.from_qc_generators") / passes, "s"),
            "grc.distance_profile.self_s": (s.self_s("grc.distance_profile") / passes, "s"),
            "poly.self_s": (s.layer_self_s("poly.") / passes, "s"),
        }
        attributed = busy + sum(v for k, (v, _) in out.items() if k.endswith("self_s"))
        # share of the pass's thread time (threads x wall) that no layer span
        # covers: verify_entry's own glue, and idle time at threads=2
        out["trace.unattributed_frac"] = (1.0 - attributed / (self.threads * wall), "ratio")
        return out
