"""Machine-speed probe of the covhedge benchmark.

The benchmark shares a few cores of a virtual machine with other jobs, and
the speed of those cores changes by up to 2x every few seconds and drifts
by 20-40% over minutes, in CPU time as much as in wall time.  Raw wall
times of one run therefore say more about the machine than about
covhedge.  This module measures the machine's speed while the workload
runs, so that `run.py` can report times at a fixed reference speed.

`probe()` runs a fixed kernel of the kind covhedge spends its time in:
eigen-decompositions of small complex matrices and complex exponentials
of short vectors.  It does not call covhedge, so a change to covhedge
cannot change it.  `Sampler` runs the probe from a SIGALRM interval timer
while timed work runs; the interpreter calls the handler between
bytecodes, so the samples cover the work evenly in time (a numpy call that
runs longer than the interval delays one sample to its end).

If the probe takes p seconds at some moment and `PROBE_REF_S` at the
reference speed, the machine runs at PROBE_REF_S / p of the reference
speed then.  Work that takes t wall seconds would take the time integral
of that ratio at the reference speed, estimated as t times the mean of
PROBE_REF_S / p over the samples taken during it.  The probe's own time
is taken out of t first.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

import numpy as np

PROBE_REPS = 80          # kernel iterations per probe, about 3-6 ms
PROBE_REF_S = 0.0035     # seconds per probe at the reference speed
INTERVAL_S = 0.2         # seconds between two samples

_MAT = np.array([[-2.5, -1.5], [-1.5, -2.5]]) + 0.1j * np.eye(2)
_VEC = np.linspace(0.0, 1.0, 256) * (1.0 + 1.0j)


def probe() -> float:
    """Run the fixed kernel once; returns its wall seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(PROBE_REPS):
        w, vecs = np.linalg.eig(_MAT * (1.0 + k * 1e-3))
        acc += abs(np.exp(_VEC * w[0]) @ np.exp(_VEC * w[1])) + abs(vecs[0, 0])
    if not np.isfinite(acc):
        raise FloatingPointError("speed probe overflowed")
    return time.perf_counter() - t0


def speed_factor(probe_seconds) -> float:
    """Mean reference-to-measured speed ratio over probe durations."""
    return float(np.mean(PROBE_REF_S / np.asarray(probe_seconds)))


class Sampler:
    """Samples the probe every `interval` seconds inside a `with` block.

    Each sample is (start, duration) in `time.perf_counter` seconds.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._saved = None

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        d = probe()
        self.starts.append(t0)
        self.durations.append(d)

    def __enter__(self) -> "Sampler":
        self._saved = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def reference_seconds(self, t0: float, t1: float,
                          fallback: float) -> tuple[float, float]:
        """Seconds that work timed from t0 to t1 would take at the
        reference speed, and the speed factor used.  Probe time inside the
        interval is taken out; with no sample inside, `fallback` is the
        factor."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.starts, t1)
        inside = self.durations[lo:hi]
        factor = speed_factor(inside) if inside else fallback
        return (t1 - t0 - sum(inside)) * factor, factor

    def factor(self) -> float:
        """Speed factor over every sample taken so far."""
        return speed_factor(self.durations)
