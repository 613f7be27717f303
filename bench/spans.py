"""In-memory span tracing of the program's public functions.

The traced run wraps chosen functions and methods of ``chunknet`` from the
benchmark's side; the program itself is not edited. A module that imported a
function by name (``from .patterns import difference``) calls its own
binding, so :meth:`Tracer.patch` replaces the name in every module that looks
it up. Each call becomes one span (name, start, end, parent); spans are kept
in flat arrays while the run lasts and written out once at exit.

Self time of a span is its duration minus the durations of its direct
children, so self times over all spans add up to the duration of the root
spans.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = []               # per name id: spans of it now open
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.open.append(0)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    # -- recording ---------------------------------------------------------

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.open[nid] += 1
        self.start.append(self._clock())
        return idx

    def _finish(self, idx: int, nid: int) -> None:
        self.end[idx] = self._clock()
        self._stack.pop()
        self.open[nid] -= 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        nid = self.name_id(name)
        idx = self._begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._finish(idx, nid)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(args, result)``
        runs after the span closes."""
        nid = self.name_id(name)
        begin, finish = self._begin, self._finish

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx, nid)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, name: str, owner, attr: str, others=(), on_result=None):
        """Replace ``owner.attr`` and the same binding in each of ``others``
        with one traced wrapper; :meth:`restore` puts the originals back."""
        fn = getattr(owner, attr)
        traced = self.wrap(name, fn, on_result)
        for target in (owner, *others):
            if getattr(target, attr) is not fn:
                raise RuntimeError(f"{target!r}.{attr} is not {name}")
            self._patched.append((target, attr, fn))
            setattr(target, attr, traced)
        return traced

    def restore(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        totals = [0.0] * len(self.names)
        name_of, parent, start, end = (self.name_of, self.parent,
                                       self.start, self.end)
        for i in range(len(start)):
            dur = end[i] - start[i]
            totals[name_of[i]] += dur
            p = parent[i]
            if p >= 0:
                totals[name_of[p]] -= dur
        return dict(zip(self.names, totals))

    def durations(self, name: str) -> list[float]:
        """Inclusive duration of every span called ``name``."""
        nid = self._ids.get(name)
        return [e - s for n, s, e in zip(self.name_of, self.start, self.end)
                if n == nid]

    def write(self, directory: Path) -> None:
        """Spans as flat binary arrays plus a JSON index naming them."""
        directory.mkdir(parents=True, exist_ok=True)
        for field in ("name_of", "parent", "start", "end"):
            with open(directory / f"{field}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)
        (directory / "index.json").write_text(json.dumps({
            "names": self.names, "spans": len(self),
            "arrays": {"name_of": "i", "parent": "i",
                       "start": "d", "end": "d"},
            "clock": "time.perf_counter, seconds"}, indent=2) + "\n",
            encoding="utf-8")
