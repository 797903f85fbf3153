"""Work measured against a reference computation sampled while it runs.

Other tenants of a shared machine can make every process on it take up to
1.75 times as long, for anything from milliseconds to minutes, and the
slowdown shows in CPU time as much as in wall time.  A fixed computation
run now and then slows by about the same factor.  ``RefClock`` runs one
(the probe, a fraction of a millisecond) from a timer signal every
``INTERVAL`` seconds while an untraced pass runs, and ``RefClock.work``
divides each stretch of an operation by the probe time sampled last before
it.  The result, in units of one probe, moves with the work the operation
does and much less with the machine's load.  Probe time is left out of
every operation's seconds.
"""

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.025
PROBE_REPS = 5
_RNG = np.random.default_rng(0)
_X = _RNG.normal(size=(50, 20))
_W1 = _RNG.normal(size=(32, 20))
_W2 = _RNG.normal(size=(7, 32))
_G = _RNG.uniform(size=(5, 8))
_Q = np.full(8, 1.0 / 8.0)
_L = [float(v) for v in _RNG.normal(size=16)]


def probe_seconds() -> float:
    """Time one probe: the kinds of work amoo spends its time on, none of
    it amoo's own code.  A small two-layer forward pass (the MLP oracle),
    an entropic step on a tiny matrix game (the PU solver) and a loop of
    Python float arithmetic (the Jacobi rotations)."""
    t0 = time.perf_counter()
    for _ in range(PROBE_REPS):
        r = np.maximum(_X @ _W1.T, 0.0) @ _W2.T
        float((r * r).sum())
        w = np.exp(_G @ _Q)
        w = w / w.sum()
        q = np.exp(-(_G.T @ w))
        q = q / q.sum()
        float(np.max(_G @ q) - np.min(_G.T @ w))
        acc = 0.0
        for i in range(15):
            t = (_L[i + 1] - _L[i]) / (2.0 * _L[i] + 1e-9)
            acc += t / (abs(t) + (1.0 + t * t) ** 0.5)
    return time.perf_counter() - t0


class RefClock:
    """Samples the probe on SIGALRM while active (main thread only)."""

    def __init__(self):
        self.starts: list[float] = []
        self.probes: list[float] = []
        self._old_handler = None

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.probes.append(probe_seconds())
        self.starts.append(start)

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def work(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds, probe units) of [t0, t1], probe runs inside it left out.

        ``t0`` must fall after the first sample, which ``__enter__`` takes.
        """
        i = bisect.bisect_right(self.starts, t0) - 1
        if i < 0:
            raise ValueError("interval starts before the first probe sample")
        p = self.probes[i]
        t, seconds, units = t0, 0.0, 0.0
        for j in range(i + 1, len(self.starts)):
            if self.starts[j] >= t1:
                break
            seconds += self.starts[j] - t
            units += (self.starts[j] - t) / p
            p = self.probes[j]
            t = self.starts[j] + p
        seconds += max(t1 - t, 0.0)
        units += max(t1 - t, 0.0) / p
        return seconds, units
