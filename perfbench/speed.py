"""Speed-normalised timing for a host whose CPU speed drifts.

On a shared 2-CPU virtual machine the speed of one core swings by up to 2x
within seconds, so the raw wall time of a 20-50 s workload spreads 8-24%
between runs.  SpeedSampler runs a fixed calibration kernel from a SIGPROF handler
at equal steps of process CPU time, so the kernel samples the same core at
the same moments as the work.  `normalise` turns a measured time into
seconds at the reference speed, at which one kernel run takes ref_s:

    (measured - time spent in the handler) * ref_s / kernel time

The kernel time is the harmonic mean of the samples: samples come at equal
steps of CPU time, so the work done in a step is proportional to 1 / sample.

This module imports only the standard library, so that a set-up measurement
can start sampling before numpy is imported.
"""

from __future__ import annotations

import signal
import statistics
import time

ENGINE_REF_S = 50e-6
ENGINE_PERIOD_S = 0.01
PYTHON_REF_S = 10e-6
PYTHON_PERIOD_S = 0.002


def python_kernel():
    """Pure-Python arithmetic, for spans that start before numpy is loaded."""
    acc = 0
    for j in range(200):
        acc += j * j
    return acc


def make_engine_kernel():
    """Small matrix products and einsum frame changes, like the engine's
    per-node curvature code.  Of the kernels tried (pure Python loops,
    linear solves, products, einsums) this one tracked the engine's speed
    most closely."""
    import numpy as np

    m = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.5]])
    t = np.arange(81.0).reshape(3, 3, 3, 3)

    def kernel():
        a = m
        for _ in range(10):
            a = 0.5 * (a @ m)
        for _ in range(4):
            b = np.einsum("ijkl,ia,jb->abkl", t, a, m)
        return b

    return kernel


class SpeedSampler:
    """Context manager sampling kernel times while the body runs."""

    def __init__(self, kernel, ref_s: float, period: float):
        self.kernel = kernel
        self.ref_s = ref_s
        self.period = period
        self.samples = []
        self.in_handler = 0.0
        self._previous = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _handler(self, signum, frame):
        self.in_handler += self._sample()

    def __enter__(self):
        self._sample()   # at least one sample, outside the measured span
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    @property
    def kernel_s(self) -> float:
        return statistics.harmonic_mean(self.samples)

    def normalise(self, seconds: float) -> float:
        """seconds of work measured under this sampler, at the reference speed."""
        return (seconds - self.in_handler) * self.ref_s / self.kernel_s
