"""``import grclib`` loads no submodule, and a package name loads only
the modules it needs.

Every benchmark workload pays the package import in its set-up time, and
with no bytecode cache that import compiles every module it loads.  Each
module is loaded on first use of one of its package names, and the bound
suite, the command line and the preset codes only by their callers, so a
workload compiles only what it calls.  The imports run in a fresh
interpreter, so modules this test process already holds do not count.
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
    assert {name for name in loaded if name.startswith("grclib")} == {"grclib"}


def test_the_catalog_loads_no_bounds_decoding_or_cli():
    loaded = _loaded_after("import grclib; grclib.load_table()")
    assert "grclib.codetable" in loaded
    assert not loaded & {
        "grclib.bounds", "grclib.decoding", "grclib.geometry", "grclib.presets",
        "grclib.verification", "grclib.cli",
    }


def test_a_bound_loads_the_bounds_module_and_binds_its_siblings():
    script = "import grclib; grclib.griesmer_g; assert 'type1_upper' in vars(grclib)"
    loaded = _loaded_after(script)
    assert "grclib.bounds" in loaded
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
