"""In-memory span tracing around calls into ``fnr``.

A span records name, start, end and the span that was open when it
started.  Spans stay in memory until the run ends; then ``self_times``
derives each name's self time (duration minus the time covered by its
direct children) and call count, and ``write`` saves the spans.
``NullTracer`` is the untraced path: it calls straight through and records
nothing.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable


class NullTracer:
    enabled = False

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    enabled = True

    def __init__(self):
        # (name, start, end, parent index or -1)
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.counts: dict[str, list[float]] = defaultdict(list)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name: str | Callable, fn: Callable) -> Callable:
        """``name`` may be a function of the call's arguments, for a callee
        that serves several layers (the three BLSTMs)."""
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            return self.call(label, fn, *args, **kwargs)
        return wrapper

    def spanning(self, name: str | Callable) -> Callable[[Callable], Callable]:
        """Wrapper factory for ``patched``: one span per call."""
        return lambda fn: self.wrap(name, fn)

    @contextlib.contextmanager
    def patched(self, patches):
        """Replace each ``(owner, attribute, factory)`` entry with
        ``factory(original)`` for the duration of the block, then restore
        the originals."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for (owner, attr, factory), (_, _, original) in zip(patches, saved):
                setattr(owner, attr, factory(original))
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def write(self, path) -> None:
        """One JSON object per span; times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, calls)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name][0] += end - start - covered
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}
