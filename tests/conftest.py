"""Pin the BLAS libraries to one thread for the whole test session.

Checks 1 and 2 of the acceptance suite have wall-time limits.  At the
default thread count, small dense kernels slow down many-fold when another
process holds a core, so those timings would depend on the machine's load.
The variables are read when numpy loads BLAS, which happens after this file
is imported; values set by the caller are kept.

The clock fixture is a fake time module for tests of the trace timings.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


class FakeClock:
    """Stands in for the time module: perf_counter reads a counter that
    only the functions wrapped by ticking advance, by one second a call."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now

    def ticking(self, fn):
        def wrapped(*args, **kwargs):
            self.now += 1.0
            return fn(*args, **kwargs)

        return wrapped


@pytest.fixture
def clock():
    return FakeClock()
