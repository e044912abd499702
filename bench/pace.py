"""The host's pace, timed between operations, and the scale it gives timings.

The benchmark runs on a shared host whose speed drifts by a fifth or more
within seconds and between minutes.  The drift slows every in-process
operation alike, and every fresh process alike, but the two differently.
So the run times two fixed pieces of work that weldlab has no part in, spread
over the run like the operations themselves:

* ``loop``: a pure-Python loop of complex 2x2 products and dictionary
  lookups, the kind of work the layers do.  It scales in-process timings.
* ``child``: a fresh interpreter that imports numpy, most of what a
  ``weldlab`` command does before its own work.  It scales CLI timings.

A timing is multiplied by the reference time of its pace over the run's
mean time of it, so it reads as a time on the reference host.  The raw
means are printed with every result.

Means, not medians: the host's speed is bimodal.  Consecutive 3 ms loops
take either about 1.9 ms or about 3.3 ms, switching within milliseconds
(a busy or idle neighbour on the same core, most likely), so a median lands
on one mode or the other by the share of time spent in each.  A mean moves
smoothly with that share, for the operations and the paces alike, and the
scale cancels it.  A tenth of the samples at each end is cut off, so a
preempted sample does not count.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import time

#: mean time of each pace on the reference host (README, reference figures)
REFERENCE_S = {"loop": 0.0029, "child": 0.166}
CHILD_ARGV = ("-c", "import numpy")
LOOP_STEPS = 1000
#: the loop is timed after any operation that ends this long after the
#: last loop, so its samples spread over the run as evenly as time
LOOP_EVERY_S = 0.05


def _loop() -> int:
    a, b, c, d = 1 + 0.5j, 0.3 - 0.2j, 0.1 + 0.7j, 1.1 - 0.1j
    seen = {}
    for i in range(LOOP_STEPS):
        a, b, c, d = (a * a + b * c), (a * b + b * d), (c * a + d * c), (c * b + d * d)
        s = abs(a) + abs(d) + 1e-9
        a, b, c, d = a / s, b / s, c / s, d / s
        key = (round(a.real, 6), round(b.imag, 6), i % 97)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


def trimmed_mean(times) -> float:
    """Mean of the samples left after cutting a tenth, rounded up, off each
    end; of one or two samples, their mean."""
    v = sorted(times)
    cut = -(-len(v) // 10) if len(v) > 2 else 0
    return statistics.fmean(v[cut:len(v) - cut])


class Pace:
    """Times of the two paces in one run."""

    def __init__(self):
        self.times = {"loop": [], "child": []}
        self.last_loop = 0.0

    def tick(self):
        """Time the loop if the last one ended LOOP_EVERY_S ago or more."""
        if time.perf_counter() - self.last_loop < LOOP_EVERY_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _loop()
            self.last_loop = time.perf_counter()
            self.times["loop"].append(self.last_loop - t0)
        finally:
            if enabled:
                gc.enable()

    def time_child(self, ctx):
        t0 = time.perf_counter()
        subprocess.run([ctx.python, *CHILD_ARGV], cwd=ctx.root, env=ctx.env,
                       capture_output=True, check=True, timeout=60)
        self.times["child"].append(time.perf_counter() - t0)

    def means(self) -> dict:
        return {k: trimmed_mean(v) for k, v in self.times.items()}

    def scale(self, which: str) -> float:
        """Factor that turns a time measured in this run into reference time."""
        return REFERENCE_S[which] / trimmed_mean(self.times[which])
