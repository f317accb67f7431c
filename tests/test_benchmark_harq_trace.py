"""One traced pass of the benchmark's `harq` and `harq-crc` workloads.

A traced run replaces grclib attributes with wrappers whose hooks read
each other's state (the verifier hook reads the candidate that the
``candidate_message`` hook saw last), so a simulator that calls a hooked
attribute in a new order can raise inside a traced run only.  This runs,
in a separate interpreter that writes no bytecode under ``perfbench/``,
one traced pass of each workload, checks every simulated config as a
benchmark run does, and summarises the pass into per-layer metrics.
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

report = {}
for name in ("harq", "harq-crc"):
    workload = run.WORKLOADS[name](1)
    workload.setup(grclib)
    tracer = spans.Tracer()
    workload.instrument(tracer)
    try:
        traced = [bench.timed(lambda: workload.run_pass(0, tracer))]
    finally:
        tracer.restore()
    gate = bench.Gate()
    workload.check(gate, traced[0][1])
    layers = workload.layers(tracer.summary(), traced, traced)
    report[name] = {"attempted": gate.attempted, "notes": gate.notes,
                    "layers": {k: v for k, (v, _) in layers.items()}}
print(json.dumps(report))
"""


def test_traced_harq_passes_simulate_every_config():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["harq"]["attempted"] == 5
    assert report["harq-crc"]["attempted"] == 1
    for name, result in report.items():
        assert result["notes"] == [], (name, result["notes"])
        # a config that raised has no frame rate
        assert all(v > 0 for k, v in result["layers"].items() if k.endswith(".frames_per_s")), name
