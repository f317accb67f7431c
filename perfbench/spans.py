"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public grclib functions and methods by replacing the
module or class attribute that callers look up, so spans are recorded
around each call into a layer without editing the package.  A span is
(name, start, end, parent, root): ``parent`` is the span that was open on
the same thread when it began and ``root`` the outermost one, which is the
benchmark-level unit (a catalog pass, a HARQ frame batch, a grid case) that
all its spans share.  Spans live in flat per-thread arrays and are folded
into self times only when the run ends.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import threading
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

Hook = Callable[..., None]


class _Buffer:
    """Spans recorded by one thread."""

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter[tuple[int, str]] = Counter()  # (root, key) -> count


class Tracer:
    def __init__(self) -> None:
        self._names: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []
        self._tags: dict[tuple[int, int], str] = {}  # (buffer, root span) -> tag
        self._cleanup: list[Callable[[], None]] = []
        self.enabled = False

    # -- recording -------------------------------------------------------------

    def _buf(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._local.index = len(self._buffers)
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        with self._lock:
            return self._names.setdefault(name, len(self._names))

    def _open(self, buf: _Buffer, name_id: int) -> int:
        idx = len(buf.name)
        parent = buf.stack[-1] if buf.stack else -1
        buf.name.append(name_id)
        buf.parent.append(parent)
        buf.root.append(buf.root[buf.stack[0]] if buf.stack else idx)
        buf.end.append(0.0)
        buf.stack.append(idx)
        buf.start.append(time.perf_counter())
        return idx

    def _close(self, buf: _Buffer, idx: int) -> None:
        buf.end[idx] = time.perf_counter()
        buf.stack.pop()

    @contextmanager
    def root(self, tag: str) -> Iterator[None]:
        """Benchmark-level span; every span under it shares its tag."""
        if not self.enabled:
            yield
            return
        buf = self._buf()
        idx = self._open(buf, self._name_id("root"))
        self._tags[(self._local.index, idx)] = tag
        try:
            yield
        finally:
            self._close(buf, idx)

    def count(self, key: str, n: int = 1) -> None:
        """Add n to a counter owned by the current root span."""
        buf = self._buf()
        root = buf.root[buf.stack[0]] if buf.stack else -1
        buf.counts[(root, key)] += n

    # -- patching ----------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        before: Hook | None = None,
        after: Hook | None = None,
    ) -> Callable[..., Any]:
        name_id = self._name_id(name)
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            buf = tracer._buf()
            if before is not None:
                before(tracer, args, kwargs)
            idx = tracer._open(buf, name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(buf, idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **hooks: Hook) -> None:
        """Replace ``owner.attr`` (a module function or a class's own method)
        by a traced wrapper until ``restore``; turns tracing on."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **hooks))
        self.enabled = True

    def on_restore(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the next ``restore`` (e.g. to stop tracemalloc)."""
        self._cleanup.append(fn)

    def restore(self) -> None:
        """Put every patched attribute back and turn tracing off."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        while self._cleanup:
            self._cleanup.pop()()
        self.enabled = False

    # -- folding -------------------------------------------------------------------

    def summary(self) -> "Summary":
        names = {v: k for k, v in self._names.items()}
        self_time: Counter[tuple[str, str]] = Counter()
        incl_time: Counter[tuple[str, str]] = Counter()
        calls: Counter[tuple[str, str]] = Counter()
        counts: Counter[tuple[str, str]] = Counter()
        root_wall: Counter[str] = Counter()
        for b, buf in enumerate(self._buffers):
            if not len(buf.name):
                continue
            name = np.frombuffer(buf.name, dtype=np.int32)
            parent = np.frombuffer(buf.parent, dtype=np.int32)
            root = np.frombuffer(buf.root, dtype=np.int32)
            start = np.frombuffer(buf.start, dtype=np.float64)
            dur = np.frombuffer(buf.end, dtype=np.float64) - start
            child = np.zeros_like(dur)
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
            own = dur - child
            tag_of = {r: self._tags.get((b, r), "") for r in np.unique(root).tolist()}
            pairs, inverse = np.unique(
                np.stack([root, name], axis=1), axis=0, return_inverse=True
            )
            inverse = inverse.reshape(-1)
            own_sum = np.bincount(inverse, weights=own, minlength=len(pairs))
            dur_sum = np.bincount(inverse, weights=dur, minlength=len(pairs))
            ncall = np.bincount(inverse, minlength=len(pairs))
            for j, (r, n) in enumerate(pairs.tolist()):
                key = (tag_of[r], names[n])
                self_time[key] += float(own_sum[j])
                incl_time[key] += float(dur_sum[j])
                calls[key] += int(ncall[j])
                if names[n] == "root":
                    root_wall[tag_of[r]] += float(dur_sum[j])
            for (r, key), c in buf.counts.items():
                counts[(tag_of.get(r, ""), key)] += c
        return Summary(self_time, incl_time, calls, counts, root_wall)


@dataclass
class Summary:
    """Self time, inclusive time, calls and counts keyed by (root tag, name)."""

    self_time: Counter[tuple[str, str]]
    incl_time: Counter[tuple[str, str]]
    calls: Counter[tuple[str, str]]
    counts: Counter[tuple[str, str]]
    root_wall: Counter[str]  # wall time of the root spans, by tag

    def _sum(self, table: Counter, name: str, tag: str | None) -> float:
        return sum(v for (t, n), v in table.items() if n == name and (tag is None or t == tag))

    def self_s(self, name: str, tag: str | None = None) -> float:
        return self._sum(self.self_time, name, tag)

    def incl_s(self, name: str, tag: str | None = None) -> float:
        return self._sum(self.incl_time, name, tag)

    def ncalls(self, name: str, tag: str | None = None) -> int:
        return int(self._sum(self.calls, name, tag))

    def count(self, key: str, tag: str | None = None) -> int:
        return int(self._sum(self.counts, key, tag))

    def layer_self_s(self, prefix: str, tag: str | None = None) -> float:
        """Self time of every span whose name starts with ``prefix``."""
        return sum(
            v
            for (t, n), v in self.self_time.items()
            if n.startswith(prefix) and (tag is None or t == tag)
        )

    def wall_s(self, tag: str | None = None) -> float:
        return sum(v for t, v in self.root_wall.items() if tag is None or t == tag)
