"""Timing that cancels the host's speed.

On a shared host, other tenants slow this process by 1.5–2× for stretches
from under a second to over a minute, with no steal time visible from
inside. Seconds then say more about the neighbours than about the
program. While a `Probe` runs, a timer interrupts the program every
INTERVAL_S and times one call of `reference`, a fixed piece of pure-Python
work whose code never changes. A `Timing` is an operation's wall time
minus the probe's own time, together with the probe durations that fell
inside it; its `cost` is the seconds divided by their mean, i.e. the
operation's time in units of the reference's time at the same moment.
A stretch that slows both alike leaves the cost where it was; a change to
the program moves it as it moves the seconds.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

INTERVAL_S = 0.005
_MODULUS = 2 ** 127 - 1


def reference() -> int:
    """The unit of cost: about 70 µs of interpreter work, integer
    arithmetic on 128-bit values and dict stores, the mix fdkg runs."""
    acc, table = 1, {}
    for i in range(200):
        acc = (acc * 1103515245 + i) % _MODULUS
        table[i & 31] = acc
    return acc


@dataclass
class Timing:
    seconds: float = 0.0  # wall time minus the probe's own time
    ref_sum: float = 0.0  # probe durations that fell inside
    ref_n: int = 0
    ref_before: float | None = None  # the last probe duration before it

    def __add__(self, other: "Timing") -> "Timing":
        return Timing(self.seconds + other.seconds, self.ref_sum + other.ref_sum,
                      self.ref_n + other.ref_n, self.ref_before or other.ref_before)

    @property
    def cost(self) -> float | None:
        """Seconds per reference call; an operation too short for the
        probe to fall inside it uses the probe just before. None when no
        probe ran."""
        ref = self.ref_sum / self.ref_n if self.ref_n else self.ref_before
        return self.seconds / ref if ref else None


class Probe:
    """Times `reference` every INTERVAL_S while active (main thread only)."""

    def __init__(self):
        self.durations = []

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        reference()
        self.durations.append(perf_counter() - start)

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._on_alarm(None, None)  # so the first Timing has a probe before it
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def timed(self):
        """Times the body; the Timing is filled in when the body ends."""
        timing = Timing()
        first = len(self.durations)
        if first:
            timing.ref_before = self.durations[-1]
        start = perf_counter()
        yield timing
        wall = perf_counter() - start
        inside = self.durations[first:]
        timing.ref_sum, timing.ref_n = sum(inside), len(inside)
        timing.seconds = wall - timing.ref_sum


OFF = Probe()  # never entered: its Timings carry seconds and no cost
