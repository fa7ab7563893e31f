"""In-memory span recorder and the wrappers that feed it.

A span is (name, start, end, parent). Spans live in flat typed arrays so a
traced run of several hundred thousand calls stays a few megabytes; they are
written out once, when the run ends. Hot calls (``PortableRandom.uniform``,
``scipy.linalg.expm``) only bump a counter: a span per call would cost more
than the call itself.

Wrappers are installed at the names the program's callers look up (for
example ``telegraphctl.experiments.decide_action``), never inside ``src/``,
and only for the traced pass; ``Tracer.installed`` restores every original.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from pathlib import Path

import numpy as np

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_now())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(self._id(name))
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    def counting(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self, spans=(), counters=()):
        """Replace ``owner.attr`` by a span wrapper for each (owner, attr,
        name) in ``spans`` and by a call counter for each in ``counters``;
        restore the originals on exit."""
        saved = []
        try:
            for wrapper, table in ((self.wrap, spans), (self.counting, counters)):
                for owner, attr, name in table:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ---- analysis -------------------------------------------------------

    def arrays(self):
        return (
            np.array(self.name_id, dtype=np.int32),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.parent, dtype=np.int64),
        )

    def durations(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.empty(0)
        nid, start, end, _ = self.arrays()
        mask = nid == self._ids[name]
        return end[mask] - start[mask]

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds,
        where self time is a span's duration minus its children's."""
        nid, start, end, parent = self.arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for i, name in enumerate(self.names):
            mask = nid == i
            out[name] = {
                "calls": int(mask.sum()),
                "total_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def save(self, path: Path) -> None:
        nid, start, end, parent = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=nid,
            start=start,
            end=end,
            parent=parent,
        )


class NullTracer:
    """Stand-in for untraced passes: no spans, no wrappers."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def wrap(self, name: str, fn):
        return fn
