"""The host-speed reference: a fixed pure-Python loop that uses no flatlink code.

The benchmark's host is a few cores of a shared machine whose speed swings
by up to 1.8x within seconds and drifts over minutes; process CPU time moves
with wall time, so the swings are a slower CPU, not waiting.  Each timed
stretch of work is therefore paired with timings of this loop taken around
it, and reported in seconds at reference speed:

    measured seconds * REF_S / (mean of the loop's timings)

The loop formats, splits, counts, sorts and joins strings, the kind of work
flatlink's stages do, so the host's swings slow it about as much as them.
It never changes with the program under test, so a faster program still
reads faster.
"""

from __future__ import annotations

import gc
import random
import time

# The loop's time on an unloaded 2-core x86 host with CPython 3.11; it sets
# the scale of the normalised seconds, not their stability.
REF_S = 0.045


def _loop() -> int:
    # Ten chunks of 2000 lines, so the loop adds about 1 MiB to the peak
    # RSS of the process that runs it.
    rng = random.Random(7)
    total = 0
    for _ in range(10):
        words = ["w%06d" % rng.randrange(10**6) for _ in range(2000)]
        lines = ['<http://x/%s> <http://p/%d> "%s" .' % (w, i % 13, w[::-1]) for i, w in enumerate(words)]
        counts: dict[str, int] = {}
        for line in lines:
            s, _, o, _ = line.split(" ")
            counts[s] = counts.get(s, 0) + len(o)
        total += len("\n".join(sorted(lines, key=lambda line: line[::-1])).encode()) + len(counts)
    return total


def reference_s() -> float:
    """One timing of the loop, in seconds, with the cyclic GC paused so the
    caller's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalised(elapsed: float, *refs: float) -> float:
    """`elapsed` seconds in seconds at reference speed, given the loop's
    timings taken around them."""
    return elapsed * REF_S * len(refs) / sum(refs)
