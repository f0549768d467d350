"""A reference clock: times measured on a host whose speed drifts,
rescaled to one fixed speed.

The hosts this benchmark runs on are shared: the same decode, in the
same process, runs up to 1.6x slower for seconds or minutes at a time
while a neighbour is busy, with no CPU time stolen that the process
could see. Averaging inside a run does not remove drift that lasts
longer than the run. So a fixed calibration kernel, a small beam
search in pure Python and a few numpy row operations like the
decoder's, is run between the measurements, and each measured time is
multiplied by ``KERNEL_S / t``, where ``t`` is the median of the last
``WINDOW`` samples of the kernel's time. A time so scaled is in
reference seconds: the time the work would take on a host where the
kernel takes ``KERNEL_S``, which is about its time on the 2-vCPU Xeon
VM the benchmark was tuned on.

The kernel is part of the benchmark, not of fntfuse, so a change to the
program moves the measured times and leaves the scale alone. A kernel
run straight after a decode is about 15% slower than one after another
kernel run, since the decode evicted its data; so that the scale does
not follow the program's cache footprint, a sample times a second,
warm run.
"""

from __future__ import annotations

import heapq
import math
import statistics
import time
from collections import deque

import numpy as np

KERNEL_S = 0.0015  # the kernel's time at reference speed, by definition
WINDOW = 9  # kernel samples whose median sets the current scale

_ROWS = np.random.default_rng(0).standard_normal((8, 1024))


class _Hyp:
    __slots__ = ("tokens", "score", "state")

    def __init__(self, tokens, score, state):
        self.tokens = tokens
        self.score = score
        self.state = state


def kernel() -> float:
    """Fixed work shaped like a decode: a beam of 4 over 30 words for 8
    steps (tuple keys, a score cache, hypothesis objects, merging on
    the last two tokens), then a log-sum-exp and a top-4 partition per
    1024-wide row. Returns a value so the work is not skipped."""
    cache: dict = {}
    beam = [_Hyp((), 0.0, (0,))]
    for _ in range(8):
        merged: dict = {}
        for hyp in beam:
            for w in range(30):
                key = (hyp.state, w)
                lp = cache.get(key)
                if lp is None:
                    lp = -math.log(1.0 + (w * 7 + hyp.state[-1]) % 13)
                    cache[key] = lp
                tokens = hyp.tokens + (w,)
                score = hyp.score + lp
                prev = merged.get(tokens[-2:])
                if prev is None or prev.score < score:
                    merged[tokens[-2:]] = _Hyp(tokens, score, (hyp.state[-1], w))
        beam = heapq.nlargest(4, merged.values(), key=lambda h: h.score)
    x = beam[0].score
    for row in _ROWS:
        m = row.max()
        x += float(np.log(np.exp(row - m).sum())) + m
        x += float(np.argpartition(row, -4)[-4:].sum())
    return x


class RefClock:
    """Tracks the host's speed with kernel runs and rescales times by it."""

    def __init__(self):
        self.recent: deque = deque(maxlen=WINDOW)

    def tick(self, n: int = 1) -> float:
        """Take ``n`` samples of the host's speed; returns the seconds
        that took. A sample times the second of two kernel runs: the
        first, slowed by whatever the measured program left in the
        caches, only warms them."""
        start = time.perf_counter()
        for _ in range(n):
            kernel()
            t0 = time.perf_counter()
            kernel()
            self.recent.append(time.perf_counter() - t0)
        return time.perf_counter() - start

    def scale(self, seconds: float) -> float:
        """``seconds`` measured at the current host speed, in reference seconds."""
        return seconds * KERNEL_S / statistics.median(self.recent)
