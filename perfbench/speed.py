"""Machine speed, sampled between ops, to put op times on one scale.

The benchmark shares a few cores of a host with other tenants, and the
speed of plain Python code on it drifts by up to a factor of two within a
minute.  Every wall-clock time moves with it, so two runs of the same code
can disagree by more than any useful bound.

A fixed calibration kernel is therefore timed between ops, at least every
``EVERY_S`` seconds of op time, and each op's wall time is multiplied by
``REFERENCE_S / k``, where ``k`` is the mean of the kernel samples taken
just before and just after the op.  Each sample is first replaced by the
median of three neighbouring samples, so that one sample hit by an
interrupt scales nothing.  The result is the op's time on a machine where
the kernel takes ``REFERENCE_S``.  The kernel uses only the
standard library -- ``Fraction`` arithmetic, tuples and a dict, the same
kind of work the package does -- so a change to the package moves the
scaled times and a change in the machine's speed does not.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The kernel sample's median on the machine the baseline was measured on
# (a shared 2-core x86-64 VM, Python 3.11).
REFERENCE_S = 0.0025
EVERY_S = 0.05
KERNEL_REPEATS = 4


def _kernel():
    total = Fraction(0)
    seen = {}
    for i in range(1, 120):
        total += Fraction(i % 7 + 1, i)
        seen[(i, i % 5)] = total
    return len(seen)


def kernel_s():
    """Wall time of one kernel sample, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(KERNEL_REPEATS):
            _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(seconds, before, after):
    """A wall time at the reference speed, given kernel samples around it."""
    return seconds * 2 * REFERENCE_S / (before + after)


class Gauge:
    """Kernel samples taken between the ops of one run."""

    def __init__(self):
        kernel_s()  # the first sample in a process runs cold
        self.samples = []  # (ops done before the sample, kernel seconds)
        self.since = 0.0
        self.sample(0)

    def sample(self, done):
        self.samples.append((done, kernel_s()))
        self.since = 0.0

    def after_op(self, done, latency):
        self.since += latency
        if self.since >= EVERY_S:
            self.sample(done)

    def scaled(self, latencies):
        """Every latency at the reference speed; samples once more if ops are pending."""
        if self.samples[-1][0] < len(latencies):
            self.sample(len(latencies))
        ks = [k for _, k in self.samples]
        first = [max(0, min(i - 1, len(ks) - 3)) for i in range(len(ks))]
        smooth = [statistics.median(ks[j:j + 3]) for j in first]
        bounds = [done for done, _ in self.samples]
        out = []
        for i in range(len(bounds) - 1):
            out += [scale(t, smooth[i], smooth[i + 1]) for t in latencies[bounds[i]:bounds[i + 1]]]
        return out

    def summary(self):
        """Kernel sample count, median, lowest and highest, for the run header."""
        ks = [k for _, k in self.samples]
        return (f"gauge: {len(ks)} kernel samples, median {statistics.median(ks) * 1e3:.3f} ms, "
                f"range {min(ks) * 1e3:.3f}-{max(ks) * 1e3:.3f} ms, reference "
                f"{REFERENCE_S * 1e3:.3f} ms")
