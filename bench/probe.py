"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same pass can take anywhere from 1x to 2x its time,
depending on what the neighbours do. The kernel below never changes, so its
duration tracks the host's speed. ``Sampler`` runs it every ``interval``
seconds during a pass, from a timer signal. A pass time scaled by
``REFERENCE_S / median kernel time`` is the time the pass would take at the
reference speed.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# median kernel time on the host this benchmark was written on
# (2-vCPU Intel Xeon VM, python 3.11.7, numpy 2.4.6, one BLAS thread)
REFERENCE_S = 0.0017

_X = np.random.default_rng(0).standard_normal((32, 2))


def kernel():
    """Small numpy pair arithmetic and a Python-level loop, like the workloads.

    It allocates only small arrays, so it leaves the allocator's large-block
    state, and with it the workloads' page faults, alone.
    """
    for _ in range(30):
        d = _X[None, :, :] - _X[:, None, :]
        r = np.hypot(d[..., 0], d[..., 1])
        np.einsum("jl,jld->jd", (r + 1.0) ** -1.5, d)
    math.fsum(abs(math.sin(i * 1e-3)) ** 1.5 for i in range(1, 1600))


def timed_kernel():
    """(wall, cpu) seconds of one kernel run."""
    w0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - w0, time.process_time() - c0


class Sampler:
    """Runs the kernel every ``interval`` s of wall time while the ``with`` block runs.

    The handler runs between bytecodes of the measured code, so every sample
    is taken in the middle of the pass. Its own time is in ``samples`` and is
    subtracted from the pass by the caller.
    """

    def __init__(self, interval=0.1):
        self.interval = interval
        self.samples = []

    def _handler(self, signum, frame):
        self.samples.append(timed_kernel())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one interval
            self.samples.append(timed_kernel())
        return False

    @property
    def speed(self):
        """Reference speed relative to now: below 1 while the host runs slow."""
        return REFERENCE_S / statistics.median(w for w, _ in self.samples)
