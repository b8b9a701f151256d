"""In-memory span recorder that times conicot functions from outside the package.

Each traced function is replaced, under the module-level name its callers
look up, by a wrapper that records one span (label, start, end, parent).
The package itself is not modified; `Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # (label, start, end, parent index or -1)
        self.observations = []  # (label, value returned by the observe hook)
        self.missing = []  # "module.attr" names that did not exist
        self._stack = []
        self._patches = []  # (module, attr, original)

    def reset(self):
        self.spans.clear()
        self.observations.clear()
        self._stack.clear()

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, label, start):
        end = self.clock()
        self._stack.pop()
        self.spans[idx] = (label, start, end, parent)

    @contextlib.contextmanager
    def span(self, label):
        """Record a span around a block of the benchmark's own code."""
        idx, parent = self._open()
        start = self.clock()
        try:
            yield
        finally:
            self._close(idx, parent, label, start)

    def wrap(self, module, attr, label, observe=None):
        """Replace module.attr by a recording wrapper; False if it does not exist.

        `label` is a string or a function of (args, kwargs) returning one.
        `observe(args, kwargs, result)`, if given, runs after each call and
        its return value is kept in `observations`. It should return a small
        summary, since keeping arguments alive would hold their arrays.
        """
        original = getattr(module, attr, None)
        if original is None:
            name = f"{module.__name__}.{attr}"
            if name not in self.missing:
                self.missing.append(name)
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(args, kwargs)
            idx, parent = tracer._open()
            start = tracer.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(idx, parent, name, start)
            if observe is not None:
                tracer.observations.append((name, observe(args, kwargs, result)))
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)
        return True

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def summary(self) -> dict:
        """Per label: call count, total span time and self time, in seconds."""
        return summarize(self.spans)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict:
    """Self time of a span is its duration minus the part its children cover."""
    children = {}
    for label, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for idx, (label, start, end, _) in enumerate(spans):
        row = out.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - _covered(children.get(idx, ()))
    return out
