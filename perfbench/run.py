"""grclib benchmark: one workload per process, closed loop, one call at a
time.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Workloads: catalog, catalog-2t, harq, harq-crc, grid (see the modules of
the same names).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes over
the same inputs and reports the per-layer metrics, including the tracing
overhead.  Every output is checked against an independent reference and
the last line of stdout is the JSON result.  ``--selftest`` only runs the
gate's self-test and the metric list check.

Exit codes: 0 done, 2 the benchmark cannot run here (no grclib sources),
3 the gate's self-test failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import bench
import checks
from catalog import Catalog
from grid import Grid
from harq import GOLAY, QC20, Harq
from spans import Tracer

WORKLOADS = {
    "catalog": lambda seed: Catalog(seed, threads=1),
    "catalog-2t": lambda seed: Catalog(seed, threads=2),
    "harq": lambda seed: Harq(seed, GOLAY),
    "harq-crc": lambda seed: Harq(seed, QC20),
    "grid": Grid,
}
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
]
TRACE_COMMON = [
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
]


def per_layer_names() -> list[tuple[str, str]]:
    return TRACE_COMMON + Catalog.layer_names() + Harq.layer_names() + Grid.layer_names()


def run(workload: str, seed: int, seconds: int, trace: bool) -> None:
    wl = WORKLOADS[workload](seed)
    tracer = Tracer()
    _, setup_s = bench.timed_setup(wl.setup)
    gate = bench.Gate()
    if not trace:
        passes = bench.run_passes(lambda i: wl.run_pass(i, tracer), seconds)
        rss = bench.peak_rss_mb()  # before the reference enumeration runs
        for _, out in passes:
            wl.check(gate, out)
        wl.finish(gate)
        print(f"{workload}: {wl.describe([out for _, out in passes])}; pass walls "
              + " ".join(f"{dt:.4f}" for dt, _ in passes))
        metrics = {
            "wall_s": (statistics.median([dt for dt, _ in passes]), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
            "ok_frac": (gate.ok_frac, "ratio"),
        }
        names = END_TO_END
    else:
        plain, traced = [], []

        def pair(i: int) -> None:
            plain.append(bench.timed(lambda: wl.run_pass(i, tracer)))
            wl.instrument(tracer)
            try:
                traced.append(bench.timed(lambda: wl.run_pass(i, tracer)))
            finally:
                tracer.restore()

        bench.run_passes(pair, seconds)
        for _, out in plain + traced:
            wl.check(gate, out)
        wl.finish(gate)
        print(f"{workload}: {wl.describe([out for _, out in plain + traced])}, half traced")
        traced_wall = statistics.median([dt for dt, _ in traced])
        plain_wall = statistics.median([dt for dt, _ in plain])
        metrics = wl.layers(tracer.summary(), traced, plain) | {
            "trace.wall_s": (traced_wall, "s"),
            "trace.overhead_frac": (traced_wall / plain_wall - 1.0, "ratio"),
        }
        names = per_layer_names()
    unknown = set(metrics) - {n for n, _ in names}
    if unknown:
        raise bench.BenchError(f"metrics missing from the declared list: {sorted(unknown)}")
    # a layer this workload does not exercise reads 0
    result = {n: bench.metric(metrics.get(n, (0.0, u))[0], u) for n, u in names}
    bench.emit(bench.run_record(workload, seed, seconds, trace), gate, result)


def spec_problems() -> list[str]:
    """Differences between the declared metrics and BENCHMARK.json, if present."""
    path = bench.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    spec = json.loads(path.read_text())
    problems = []
    for key, names in (("end_to_end", END_TO_END), ("per_layer", per_layer_names())):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != names:
            problems.append(f"BENCHMARK.json {key} differs from the metrics run.py reports")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    return problems


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    problems = checks.self_test() + spec_problems()
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    if problems:
        return 3
    if args.selftest:
        print("self-test: the gate caught the wrong distance and the wrong FER count; "
              "declared metrics match BENCHMARK.json")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except bench.BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
