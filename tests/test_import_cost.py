"""``import grclib`` loads only what the library's own names need.

Every benchmark workload pays the package import in its set-up time, and
with no bytecode cache that import compiles every module it loads.  The
bound suite, the command line and the preset codes are loaded only by
their callers, and geometry, decoding and the code table on first use of
one of their package names, so none of them is on that path.  The imports
run in a fresh interpreter, so modules this test process already holds do
not count.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


LAZY = {"grclib.geometry", "grclib.decoding", "grclib.codetable"}


def _loaded_after(script: str) -> set[str]:
    """The modules loaded once ``script`` has run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    script += "; import json, sys; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_grclib_leaves_out_the_bound_suite_cli_and_presets():
    loaded = _loaded_after("import grclib")
    assert "grclib.bounds" in loaded
    assert not loaded & {"grclib.verification", "grclib.cli", "grclib.presets"}
    assert not loaded & LAZY


def test_a_lazy_name_loads_its_module_and_binds_its_siblings():
    script = (
        "import grclib; from grclib import pg_points; grclib.load_table;"
        " assert 'GrcDecoder' not in vars(grclib) and 'simplex_code' in vars(grclib)"
    )
    assert _loaded_after(script) & LAZY == {"grclib.geometry", "grclib.codetable"}
    # a submodule imported directly binds its package names too, which the
    # benchmark's tracer reads from the package's own namespace
    script = "import grclib.decoding, grclib; assert 'fer_simulate' in vars(grclib)"
    assert "grclib.decoding" in _loaded_after(script)
