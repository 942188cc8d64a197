"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _traced_peak_mib(fn):
    """tracemalloc peak of the second of two calls (the first fills the caches), in MiB."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak_mib():
    return _traced_peak_mib
