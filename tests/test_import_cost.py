"""``import grclib`` loads only what the library's own names need.

Every benchmark workload pays the package import in its set-up time, and
with no bytecode cache that import compiles every module it loads.  The
bound suite, the command line and the preset codes are loaded only by
their callers, so none of them is on that path.  The import runs in a
fresh interpreter, so modules this test process already holds do not count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_grclib_leaves_out_the_bound_suite_cli_and_presets():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script = "import json, sys, grclib; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "grclib.bounds" in loaded
    assert not loaded & {"grclib.verification", "grclib.cli", "grclib.presets"}
