"""How fast the host runs Python right now, sampled while a pass runs.

A vCPU of a shared host can run the same code up to about 2x slower for
seconds to minutes at a time, and that drift outlasts a benchmark run (see
NOTES.md, "Noise").  So the untimed probe below runs on an interval timer
during every timed pass: every ``PERIOD_S`` a SIGALRM handler, on the main
thread, runs a fixed pure-Python loop three times and keeps the faster of
the last two timings.  The first run warms the interpreter's caches after
the program's own work, so that what is timed is the host's speed and not
how much of the cache the program evicted.  The loop uses no code of the
program.

``Probe.factor()`` is ``REFERENCE_S`` over the median probe time: 1 on a
host as fast as the reference, below 1 on a slower one.  A time multiplied
by ``factor() ** exponent`` is the time at the reference speed, where the
exponent says how strongly the timed work follows the probe: 1 for work
that slows down as much as the probe does, less for work bound by memory.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.004  # between probes; each takes about 3 x 20 us
REFERENCE_S = 20e-6  # probe time that defines the reference host speed
LOOP = 300


def _loop() -> float:
    s = 0.0
    for i in range(LOOP):
        s += i * 0.5
    return s


class Probe:
    """Probe times taken while ``sampling()`` is active."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        _loop()
        t0 = perf_counter()
        _loop()
        t1 = perf_counter()
        _loop()
        t2 = perf_counter()
        self.samples.append(min(t1 - t0, t2 - t1))

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """REFERENCE_S / median probe time; raises when nothing was sampled."""
        if not self.samples:
            raise RuntimeError("no host-speed probe ran")
        return REFERENCE_S / statistics.median(self.samples)
