"""Host-speed gauge: scales measured intervals to a reference host speed.

On a small shared host the whole machine's speed drifts by tens of percent
over a few seconds, and by as much between runs minutes apart.  The drift
slows every piece of code alike.  So the gauge times a fixed kernel, which
does not touch lsmdp, before the first measured interval and after every
interval.  An interval's scaled duration is its wall time multiplied by
CAL_REF_S / (mean kernel time on either side).  That is the time the interval
would take on a host where the kernel takes exactly CAL_REF_S.

Over 100 s of back-to-back ``ring_scaling([100])`` runs on a 2-vCPU host,
scaled by this kernel at half its length, the quartile spread of 10-second
medians was 35% in wall time and 3% once scaled.

The kernel must read the host, not the workload.  OpenBLAS worker threads
keep spinning for about 0.1 s after a BLAS call returns, and a kernel timed
while they spin reads two to three times slow on a 2-vCPU host.  So every
reading waits first until the process's other threads have stopped using
CPU (``wait_for_idle_threads``).
"""
from __future__ import annotations

import gc
import time

import numpy as np
import scipy.sparse as sp

CAL_REF_S = 0.010  # the kernel's time on the reference host
BOUNDARY_SHARE = 0.02  # kernel time spent after an interval, as its share
MAX_REPS = 20
IDLE_POLL_S = 0.01  # window in which the other threads must stay idle
IDLE_MAX_S = 1.0    # give up waiting after this long
_SIZE, _SWEEPS = 500, 800
_WALK = sp.diags([np.full(_SIZE - 1, 0.3), np.full(_SIZE, 0.3),
                  np.full(_SIZE - 1, 0.3)], [-1, 0, 1], format="csr")


def wait_for_idle_threads() -> None:
    """Sleep until the process's threads other than this one use less than
    a tenth of one poll window's CPU time, or IDLE_MAX_S has passed.

    Process CPU time counts every thread and ``thread_time`` only this one,
    so their difference over a sleep is the other threads' work: OpenBLAS
    workers spinning after the last BLAS call.
    """
    start = time.perf_counter()
    while time.perf_counter() - start < IDLE_MAX_S:
        process, own = time.process_time(), time.thread_time()
        time.sleep(IDLE_POLL_S)
        others = (time.process_time() - process) - (time.thread_time() - own)
        if others < 0.1 * IDLE_POLL_S:
            return


def kernel_seconds() -> float:
    """Wall time of the calibration kernel, with the collector paused so
    garbage left by the workload is not collected on the kernel's clock.

    The kernel has the same mix as lsmdp's hot loops: sparse matvecs, small
    numpy reductions and Python scalar arithmetic.  It stays in cache and
    on one thread, so the workload's own memory traffic and BLAS threads
    disturb its reading less.  (A variant that also streamed an 8 MB matrix
    read 50% slower inside the arm workload than on its own.)
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = np.ones(_SIZE)
        acc = 0.0
        for i in range(_SWEEPS):
            x = _WALK @ x
            acc += float(np.cumsum(x[:8])[-1]) + 0.5 * i
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Gauge:
    """Runs measured intervals between kernel timings.

    Interval k lies between kernel timings k and k+1.  Samples recorded while
    it runs carry k (``Record.interval``), so they can be scaled afterwards.
    """

    def __init__(self):
        self.kernel = [self._boundary(0.0)]
        self.raw = []

    @staticmethod
    def _boundary(interval_s: float) -> float:
        """Mean kernel time over enough repeats to spend BOUNDARY_SHARE of
        the interval just measured, so long intervals get a finer reading.
        The workload's threads are idle first, so they do not slow it."""
        wait_for_idle_threads()
        samples = [kernel_seconds()]
        while sum(samples) < BOUNDARY_SHARE * interval_s and len(samples) < MAX_REPS:
            samples.append(kernel_seconds())
        return sum(samples) / len(samples)

    def run(self, rec, fn, *args) -> float:
        """Run ``fn(*args)`` as the next interval; return its wall time."""
        rec.interval = len(self.raw)
        start = time.perf_counter()
        fn(*args)
        self.raw.append(time.perf_counter() - start)
        self.kernel.append(self._boundary(self.raw[-1]))
        return self.raw[-1]

    def factor(self, k: int) -> float:
        return 2.0 * CAL_REF_S / (self.kernel[k] + self.kernel[k + 1])

    def scaled(self, rec, name) -> list:
        """The samples of ``name`` scaled to the reference host speed."""
        return [t * self.factor(k) for t, k in zip(rec.times[name], rec.where[name])]
