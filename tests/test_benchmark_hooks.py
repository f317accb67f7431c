"""The benchmark's traced runs bind their spans by attribute name.

``perfbench/spans.py`` wraps a grclib function by replacing the module or
class attribute that callers look up, and reads the original from that
owner's own namespace.  A renamed or moved name therefore breaks only the
traced benchmark runs, which the test suite never starts.  This test binds
and restores every workload's hooks in a separate interpreter, so neither
the patched attributes nor the benchmark's module names reach this process,
and no bytecode is written under ``perfbench/``.  It also runs one traced
catalog pass over the small rows and summarises it into per-layer metrics,
as a traced ``catalog`` run does at its end.  A second test runs the
benchmark's own self-test: the gate must catch its planted wrong answers,
and the metrics the run reports must match those ``BENCHMARK.json``
declares.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import bench, grclib, run, spans

# load the modules grclib imports on first use, as a run's set-up does, so
# that the snapshots below compare the same modules
for name in grclib.__all__:
    getattr(grclib, name)

def snapshot():
    # every attribute of grclib's modules and of the classes they name
    owners = {}
    for name, mod in list(sys.modules.items()):
        if name == "grclib" or name.startswith("grclib."):
            owners[id(mod)] = mod
            owners.update((id(v), v) for v in vars(mod).values() if isinstance(v, type))
    return {(i, key): val for i, owner in owners.items() for key, val in vars(owner).items()}

report = {}
for name, make in run.WORKLOADS.items():
    tracer = spans.Tracer()
    workload = make(1)
    before = snapshot()
    workload.instrument(tracer)
    during = snapshot()
    tracer.restore()
    after = snapshot()
    bound = sum(1 for key, val in before.items() if during.get(key) is not val)
    restored = after.keys() == before.keys() and all(after[k] is v for k, v in before.items())
    report[name] = [bound, restored]

# one traced catalog pass over the small rows, summarised as a traced run is
catalog = run.WORKLOADS["catalog"](1)
catalog.setup(grclib)
catalog.rows = [e for e in catalog.rows if e.k <= 13]
tracer = spans.Tracer()
catalog.instrument(tracer)
try:
    traced = [bench.timed(lambda: catalog.run_pass(0, tracer))]
finally:
    tracer.restore()
layers = catalog.layers(tracer.summary(), traced, traced)
print(json.dumps({"workloads": report, "catalog_layers": {k: v for k, (v, _) in layers.items()}}))
"""


def test_every_workload_binds_and_restores_its_trace_hooks():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    report = result["workloads"]
    assert set(report) == {"catalog", "catalog-2t", "harq", "harq-crc", "grid"}
    for name, (bound, restored) in report.items():
        assert bound > 0 and restored, (name, bound, restored)
    # the catalog's per-layer rates divide by the time spent inside
    # kernels.subset_minima, so verification must sweep through it
    assert result["catalog_layers"]["kernels.subset_minima.busy_s"] > 0


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "run.py"), "--selftest"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
