"""Record the reference frame-error counts the `harq` and `harq-crc` gate
compares against, and write them to fer_reference.json.

    python3 perfbench/record_reference.py

Each config is simulated once with many frames, at a seed no benchmark run
uses (runs use seed * 100000 + pass).  The gate accepts a run's error
counts when they fall in a binomial band around these rates, so a change
of random stream still passes while a miscounted FER does not.  Re-record
only when the simulated configs themselves change.
"""

from __future__ import annotations

import json
import sys
import time

import bench
from harq import GOLAY, QC20, REFERENCE_FILE, build_codes, sim_config

REFERENCE_SEED = 2**40
FRAMES = {"qc20-crc": 8000}
DEFAULT_FRAMES = 40000


def main() -> int:
    grclib = bench.import_grclib()
    specs = GOLAY + QC20
    codes = build_codes(grclib, specs)
    out = {}
    for j, spec in enumerate(specs):
        frames = FRAMES.get(spec.name, DEFAULT_FRAMES)
        seed = REFERENCE_SEED + j
        threads = 2 if spec.crc is not None else 1  # counts do not depend on threads
        t0 = time.perf_counter()
        res = grclib.fer_simulate(sim_config(grclib, spec, codes[spec.code], frames, seed, threads))
        out[spec.name] = {
            "frames": frames,
            "seed": seed,
            "errors": [s.frame_errors for s in res.per_depth],
            "false_accepts": [s.false_accepts for s in res.per_depth],
        }
        print(f"{spec.name}: {out[spec.name]} in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    out["_about"] = {
        "git_sha": bench.git_sha(),
        "recorded_by": "perfbench/record_reference.py",
    }
    REFERENCE_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
