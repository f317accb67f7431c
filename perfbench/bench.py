"""Shared plumbing: locating and importing grclib, timing set-up, the
closed-loop pass runner, the correctness gate and the result line."""

from __future__ import annotations

import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11


class BenchError(Exception):
    """The benchmark cannot run here (for example, no grclib sources)."""


def import_grclib() -> Any:
    """Import grclib from this checkout's ``src``; never from elsewhere.

    Every earlier import is dropped first, so the module code runs again
    and the time of this call is the package's import time.
    """
    if not (SRC / "grclib" / "__init__.py").is_file():
        raise BenchError(f"grclib sources not found under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "grclib" or n.startswith("grclib.")]:
        del sys.modules[name]
    grclib = importlib.import_module("grclib")
    if not Path(grclib.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"grclib imported from {grclib.__file__}, not {SRC}")
    return grclib


def timed_setup(build: Callable[[Any], Any]) -> tuple[Any, float]:
    """Import grclib and run ``build(grclib)`` SETUP_REPEATS times.

    Returns the last build and the median time of one import-plus-build.
    Only objects from the last import are used afterwards.  Earlier builds
    are collected before each repeat and at the end, so they do not inflate
    the peak RSS by an amount that depends on when the collector runs.
    """
    times = []
    ctx = None
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        ctx = build(import_grclib())
        times.append(time.perf_counter() - t0)
    gc.collect()
    return ctx, statistics.median(times)


def timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    """(wall seconds, result) of one call."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def run_passes(one_pass: Callable[[int], Any], seconds: float) -> list[tuple[float, Any]]:
    """Closed loop: run ``one_pass(i)`` one at a time until the next pass
    would end after ``seconds``; at least one pass.

    Returns (wall seconds, pass output) per pass.
    """
    deadline = time.perf_counter() + seconds
    out: list[tuple[float, Any]] = []
    while True:
        dt, result = timed(lambda: one_pass(len(out)))
        out.append((dt, result))
        if time.perf_counter() + dt > deadline:
            return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


@dataclass
class Gate:
    """Counts operations and the ones that raised or disagreed with their
    reference; keeps the first few failures for the report."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def emit(record: dict[str, Any], gate: Gate, metrics: dict[str, dict[str, Any]]) -> None:
    """Human-readable lines, then the result object as the last line."""
    print("record " + json.dumps(record, sort_keys=True))
    for note in gate.notes:
        print(f"FAIL {note}")
    print(f"gate: {gate.attempted - gate.failed}/{gate.attempted} operations correct, "
          f"fail_frac {gate.failed / gate.attempted:.6f}")
    for name, m in metrics.items():
        print(f"{name:64s} {m['value']:.6g} {m['unit']}")
    sys.stdout.flush()
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
