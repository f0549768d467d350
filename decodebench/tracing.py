"""Tracing from outside the program: wraps fntfuse entry points.

Nothing in ``fntfuse`` is edited. The tracer replaces module attributes
(the names a caller looks up at call time, such as
``fntfuse.decoder.log_softmax``) and instance attributes (the methods of
one predictor or n-gram model) with wrappers, and puts every original
back when it is uninstalled.

A span wrapper appends (name, start, end, parent) to an in-memory list;
self time is computed from those spans when the run ends. Calls made
once per vocabulary child, such as ``advance``, get count-only wrappers,
since a span each would cost more than the work it measures.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._counts: dict = {}  # name -> one-element list, bumped per call
        self._stack = [-1]
        self._patched: list = []

    def clear(self):
        """Drop every span and count recorded so far."""
        self.spans.clear()
        for cell in self._counts.values():
            cell[0] = 0

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()

        return wrapped

    def _count(self, name, fn):
        cell = self._counts.setdefault(name, [0])

        def wrapped(*args):
            cell[0] += 1
            return fn(*args)

        return wrapped

    def patch(self, owner, attr, name, count_only=False):
        """Replace ``owner.attr`` by a span (or counting) wrapper."""
        original = getattr(owner, attr)
        wrap = self._count if count_only else self._span
        self._patched.append((owner, attr, owner.__dict__.get(attr, _ABSENT)))
        setattr(owner, attr, wrap(name, original))

    def restore(self):
        while self._patched:
            owner, attr, saved = self._patched.pop()
            if saved is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    @contextmanager
    def installed(self, patches):
        """Apply (owner, attr, span name) patches for the block's duration."""
        try:
            for owner, attr, name in patches:
                self.patch(owner, attr, name)
            yield self
        finally:
            self.restore()

    def summary(self) -> dict:
        """name -> {"calls", "s" (self time), "total_s", "outer_calls"}.

        ``outer_calls`` counts the spans whose parent has another name
        prefix than their own, i.e. calls not made from inside the same
        object (an external LM's ``top_r`` calling its own
        ``full_dist``).
        """
        done = self.spans
        if None in done:
            raise RuntimeError("summary taken while a span is still open")
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "total_s": 0.0, "outer_calls": 0})
        if done:
            start = np.array([s[1] for s in done])
            dur = np.array([s[2] for s in done]) - start
            parent = np.array([s[3] for s in done])
            child = np.zeros(len(done))
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
            self_time = dur - child
            for i, (name, _, _, p) in enumerate(done):
                row = out[name]
                row["calls"] += 1
                row["total_s"] += float(dur[i])
                row["s"] += float(self_time[i])
                if p < 0 or _owner(done[p][0]) != _owner(name):
                    row["outer_calls"] += 1
        for name, (n,) in self._counts.items():
            out[name]["calls"] += n
            out[name]["outer_calls"] += n
        return dict(out)


_ABSENT = object()


def _owner(name: str) -> str:
    return name.rsplit(".", 1)[0]
