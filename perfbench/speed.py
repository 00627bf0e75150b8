"""A running measure of the machine's speed, sampled while the items run.

On a small shared host the speed of a CPU drifts by tens of percent, over
fractions of a second as well as over minutes, and process CPU time drifts
with it; wall time per item then mostly measures the neighbours.  The
sampler times a fixed pure-Python kernel every INTERVAL_S of wall time, from
a SIGALRM handler, so the samples fall inside the items and see the speed
the items ran at.  The kernel never calls `szbov` and touches only a few
small objects, so neither a change to the program nor the program's cache
footprint changes what it measures.

`to_reference` rescales a wall time to a machine on which the kernel takes
REF_KERNEL_S: wall time x REF_KERNEL_S / (mean kernel time while it ran).
The handler's own time is counted in `busy_s`, so that it can be taken out of
the times measured.
"""

import signal
import time

INTERVAL_S = 0.05
REF_KERNEL_S = 0.0004  # the kernel's time on the reference machine


def _kernel():
    s = 0.0
    for i in range(5000):
        s += i * 0.5
    return s


def to_reference(seconds, mean_kernel_s):
    return seconds * REF_KERNEL_S / mean_kernel_s


class SpeedSampler:
    """Kernel timings every INTERVAL_S between `start` and `stop`."""

    def __init__(self):
        self.samples = []
        self.busy_s = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.busy_s += elapsed

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False

    def mean_kernel_s(self):
        return sum(self.samples) / len(self.samples)
