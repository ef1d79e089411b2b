"""Machine-speed correction for the untraced runs of the deceptsim benchmark.

The benchmark runs on a shared virtual machine whose other tenants slow a
process by up to half, in stretches from a fraction of a second to minutes.
CPU time slows with wall time, so neither clock alone gives a steady figure.
``SpeedProbe`` samples the machine's speed while the measured command runs:
a timer signal interrupts the command every PERIOD_S, and the handler times
``probe``, a fixed pure-Python loop of the same kind of work as the program
(dict updates, integer arithmetic, small strings).  The command's time
between two probes, divided by the mean of the two probe times and
multiplied by REFERENCE_S, is that stretch's time at the machine speed at
which ``probe`` takes REFERENCE_S.  ``reference_seconds`` sums the stretches.
The probes' own time is left out.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.005
REFERENCE_S = 100e-6
# Probe calls before the timer starts, so that the loop runs specialised.
WARMUP = 200


def probe() -> int:
    """A fixed slice of interpreter work: about REFERENCE_S on a 2-vCPU
    shared VM with Python 3.11."""
    counts = {}
    total = 0
    for i in range(300):
        key = i & 31
        counts[key] = counts.get(key, 0) + i
        total += len(str(i)) * key
    return total


class SpeedProbe:
    """Context manager that probes the machine's speed every PERIOD_S of
    wall time, from entry to exit, in the main thread of this process."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []  # (start, end) of each probe
        self._busy = False

    def _take(self) -> None:
        start = time.perf_counter()
        probe()
        self.probes.append((start, time.perf_counter()))

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:  # a probe stalled past the next tick
            self._busy = True
            self._take()
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        for _ in range(WARMUP):
            probe()
        self._take()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._take()

    def reference_seconds(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end``, less the probes inside it, at
        the reference speed.  Both must lie between the first probe, taken
        on entry, and the last, taken on exit."""
        total = 0.0
        for (before_start, before_end), (after_start, after_end) in zip(self.probes, self.probes[1:]):
            stretch = min(after_start, end) - max(before_end, start)
            if stretch > 0:
                probe_s = (before_end - before_start + after_end - after_start) / 2
                total += stretch * REFERENCE_S / probe_s
        return total
