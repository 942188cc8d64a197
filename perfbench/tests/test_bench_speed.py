import signal
import time

import pytest

import speed


def test_normalise_removes_handler_time_and_scales_by_harmonic_mean():
    s = speed.SpeedSampler(speed.python_kernel, ref_s=1e-5, period=0.01)
    s.samples = [1e-5, 2e-5, 2e-5]
    s.in_handler = 0.5
    # harmonic mean of (1, 2, 2) reference kernels is 1.5
    assert s.normalise(3.5) == pytest.approx(3.0 / 1.5)


def test_sampler_samples_while_busy_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with speed.SpeedSampler(speed.make_engine_kernel(), ref_s=5e-5, period=0.002) as s:
        t0 = time.process_time()
        while time.process_time() - t0 < 0.05:
            pass
    assert len(s.samples) > 2
    assert s.in_handler > 0.0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
