"""Host-speed clock: wall time rescaled by a fixed reference loop.

On a shared host the same single-threaded work runs up to about 2.5x
slower for seconds to minutes at a time, and process CPU time slows with
it, so raw wall times of the same code drift by more than any useful
regression bound.  A HostClock runs a small fixed reference loop
(``reference``, frozen here and independent of tagsplit) every PERIOD_S
seconds from a SIGALRM handler in the measured process, on the same core
and in the same slowness regime as the work around it.  ``scaled(a, b)``
is the wall time of [a, b] without the reference loop's own time, each
stretch between two samples multiplied by REFERENCE_S / (the median
reference time of the samples around it): the seconds the interval would
take on a host where one reference loop takes REFERENCE_S.

A change to the program moves the scaled time as it moves the wall time;
a change in how busy the host is moves both the interval and the
reference loop, and cancels.  ``raw(a, b)`` is the same interval in plain
seconds, without the reference loop's time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# seconds one reference() call takes on a quiet 2-vCPU VM (Python 3,
# numpy with one BLAS thread); the unit of every scaled time
REFERENCE_S = 0.003
WINDOW = 2  # samples on each side of a stretch whose median sets its rate

# the reference mixes the kinds of work tagsplit does: string hashing and
# dict updates (tokenize, vocabulary, bigram counts) and short numpy
# vector arithmetic with logs (delta_acmi over class-matrix lines)
_WORDS = [f"w{i % 211}q{i % 17}" for i in range(700)]
_LINE = np.arange(1.0, 129.0)


def reference() -> float:
    acc = 0.0
    for _ in range(15):
        counts: dict[str, int] = {}
        for w in _WORDS:
            counts[w] = counts.get(w, 0) + 1
        for w in _WORDS[:48]:
            line = _LINE + counts[w]
            acc += float((line * np.log(line)).sum())
    return acc


class HostClock:
    """Samples reference() on a timer; see the module docstring."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end) of each reference()
        self.on_sample = None  # called with each sample's duration
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append((t0, t1))
        if self.on_sample is not None:
            self.on_sample(t1 - t0)

    def start(self) -> None:
        for _ in range(20):  # warm caches and numpy's dispatch before sampling
            reference()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _stretches(self, a: float, b: float):
        """(seconds of [a, b] between samples k and k+1, their median reference time)."""
        s = self.samples
        if not s or a < s[0][1] or b > s[-1][0]:
            raise ValueError(f"interval [{a}, {b}] is not inside the sampled span")
        durations = [t1 - t0 for t0, t1 in s]
        for k in range(len(s) - 1):
            lo, hi = max(a, s[k][1]), min(b, s[k + 1][0])
            if hi > lo:
                near = durations[max(0, k - WINDOW + 1) : k + WINDOW + 1]
                yield hi - lo, statistics.median(near)

    def scaled(self, a: float, b: float) -> float:
        return sum(dt * REFERENCE_S / ref for dt, ref in self._stretches(a, b))

    def raw(self, a: float, b: float) -> float:
        return sum(dt for dt, _ in self._stretches(a, b))

    def slowness(self) -> float:
        """Median reference time over REFERENCE_S: 1.0 on a quiet host."""
        return statistics.median(t1 - t0 for t0, t1 in self.samples) / REFERENCE_S
