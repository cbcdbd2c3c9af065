"""The host's current Python speed, to scale measured seconds to a reference speed.

On a shared host the speed of the benchmark's core drifts by up to ~1.8x
over tens of seconds, and process CPU time drifts with it, so raw times of
the same code differ between runs by more than the benchmark's bounds.  A
`SpeedSampler` times a fixed stdlib-only loop (dict updates, integer and
Fraction arithmetic, like the program's hot loops) every PERIOD_S of wall
time from a SIGALRM handler, and on demand between ops.  The loop never
calls quotientlab, so a change to the program cannot change the loop's time.

An interval of t seconds, net of the sampling it contains, during which
the loop's samples took c_1..c_m seconds, is reported as

    t * REFERENCE_S * mean(1 / c_i)

seconds: the time the interval would take at the speed the loop has when
it takes REFERENCE_S.  The mean of 1/c over samples spaced evenly in wall
time is the interval's mean speed, so a change of speed inside an interval
is weighted by how long it lasted.
"""

from __future__ import annotations

import contextlib
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
# About the loop's median time on the 2-vCPU host the benchmark was written on.
REFERENCE_S = 0.0016

_THIRD = Fraction(1, 3)


def _kernel() -> int:
    table: dict[int, int] = {}
    acc = Fraction(0)
    for i in range(1, 3000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
        if i % 20 == 0:
            acc = abs(max(acc, Fraction(i, 7) - _THIRD) - Fraction(i % 5, i + 1))
    return len(table) + acc.denominator


class SpeedSampler:
    """Samples of the loop's time; `stolen_s` is the wall time the sampling took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen_s = 0.0
        self._sampling = False

    def sample(self) -> None:
        self._sampling = True
        started = time.perf_counter()
        _kernel()
        took = time.perf_counter() - started
        self.samples.append(took)
        self.stolen_s += time.perf_counter() - started
        self._sampling = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._sampling:  # an alarm during an explicit sample would time itself twice
            self.sample()

    @contextlib.contextmanager
    def running(self):
        """Sample every PERIOD_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.stolen_s

    def scaled(self, seconds: float, since: tuple[int, float]) -> tuple[float, float]:
        """Seconds net of sampling since the mark `since`, and the same in reference seconds.

        `seconds` is the wall time since the mark; the interval must hold a sample.
        """
        first, stolen = since
        net = seconds - (self.stolen_s - stolen)
        return net, net * speed_scale(self.samples[first:])


def speed_scale(samples: list[float]) -> float:
    """Reference seconds per measured second at the mean speed of the samples."""
    return REFERENCE_S * sum(1 / c for c in samples) / len(samples)
