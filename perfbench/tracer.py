"""Span tracer that wraps trq's public functions from outside the package.

Each target is a function or method looked up at its call-site module,
e.g. ``trq.recommend.edit_distance`` is the name ``recommend()`` calls,
so replacing it there times every call ``recommend()`` makes. A target
that no longer exists (a later version may delete ``instantiate_ids``)
is listed in :attr:`Tracer.absent` and skipped; installing never fails.

Spans (name, start, end, parent) are kept in flat arrays, one entry per
call, and written out once at the end. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import array
import importlib
import json
import struct
import time
from collections import defaultdict
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

NO_PARENT = -1


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.attr`` (``attr`` may be ``Class.method``)."""

    span: str
    module: str
    attr: str
    # Called after a successful call as on_result(tracer, args, result, seconds).
    on_result: Callable | None = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = [NO_PARENT]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int) -> int:
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> float:
        t = self.clock()
        self.end[sid] = t
        self._stack.pop()
        return t - self.start[sid]

    @contextmanager
    def span(self, name: str):
        sid = self.open(self._intern(name))
        try:
            yield sid
        finally:
            self.close(sid)

    def current(self) -> str | None:
        """Name of the innermost open span; in on_result, the caller's span."""
        sid = self._stack[-1]
        return None if sid == NO_PARENT else self.names[self.name[sid]]

    def wrap(self, fn: Callable, target: Target) -> Callable:
        nid = self._intern(target.span)
        on_result = target.on_result
        opened, closed = self.open, self.close

        def traced(*args, **kwargs):
            sid = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = closed(sid)
            if on_result is not None:
                on_result(self, args, result, seconds)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self, targets: Sequence[Target]) -> None:
        for t in targets:
            try:
                owner = importlib.import_module(t.module)
                *path, leaf = t.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, t))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    # -- output ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        return summarize(self.names, self.name, self.parent, self.start, self.end)

    def write(self, path: Path) -> None:
        """Header line (JSON: names, counts, absent, span count), then the
        four arrays as raw native-endian bytes: name i32, parent i32,
        start f64, end f64."""
        header = {
            "names": self.names,
            "counts": dict(self.counts),
            "absent": self.absent,
            "spans": len(self.name),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def read(path: Path) -> tuple[dict, array.array, array.array, array.array, array.array]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.frombytes(fh.read(n * struct.calcsize(code)))
            arrays.append(arr)
    return (header, *arrays)


def self_times(
    parent: Sequence[int], start: Sequence[float], end: Sequence[float]
) -> array.array:
    """Duration minus the union of child intervals, clipped to the span.

    Spans must be listed in start order with parents before children, as
    :class:`Tracer` records them; siblings may overlap.
    """
    n = len(parent)
    covered = array.array("d", bytes(8 * n))
    reach = array.array("d", start)  # per span: end of the child coverage counted so far
    for i in range(n):
        p = parent[i]
        if p == NO_PARENT:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    for i in range(n):
        covered[i] = end[i] - start[i] - covered[i]
    return covered


def summarize(names: list[str], name: Sequence[int], parent: Sequence[int],
              start: Sequence[float], end: Sequence[float]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time skips a span whose parent has the same name, so a
    direct re-entry is not counted twice.
    """
    own = self_times(parent, start, end)
    calls = [0] * len(names)
    incl = [0.0] * len(names)
    selfs = [0.0] * len(names)
    for i, nid in enumerate(name):
        calls[nid] += 1
        selfs[nid] += own[i]
        p = parent[i]
        if p == NO_PARENT or name[p] != nid:
            incl[nid] += end[i] - start[i]
    return {nm: {"calls": calls[k], "incl_s": incl[k], "self_s": selfs[k]} for k, nm in enumerate(names)}
