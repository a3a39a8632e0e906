"""Wall-clock timing in reference seconds.

The benchmark runs on shared hosts where the same call can take 1.5x longer
for minutes at a time while neighbours load the machine.  Every timed call is
therefore bracketed by two runs of a fixed calibration kernel that does not
touch the package, and reported as

    wall time x CAL_REF_S / (mean calibration time around the call),

the time the call would have taken at the speed where the kernel takes
CAL_REF_S.  A change to the package moves the call and leaves the kernel
alone; a change in machine load moves both.  README.md ("Steadiness") gives
the measurements behind this choice.
"""

from __future__ import annotations

import gc
import time

import numpy as np

CAL_REF_S = 0.0105  # kernel time on the reference machine when uncontended
CAL_RUNS = 3

clock = time.perf_counter

_IDX = np.arange(0, 4096, 3)
_EYE = np.eye(64)
_BIG = np.empty(1 << 19)  # 4 MiB, more than a core's L2 holds


def calibration_kernel() -> float:
    """A fixed mix like the package's: interpreter work, small gathers and
    matmuls, and streaming through memory.

    It allocates no Python containers and only small arrays, so its time
    does not depend on how much the process holds (garbage collection, heap).
    """
    acc = 0
    for i in range(30000):
        acc = (acc * 31 + i) % 1000003
    a = np.arange(4096.0)
    z = np.empty(4096)
    for _ in range(150):
        z.fill(0.0)
        np.add.at(z, _IDX, a[_IDX])
        a *= 0.999
        a += z * 1e-3
    m = np.ones((200, 64))
    for _ in range(50):
        np.maximum(m @ _EYE, 0.0, out=m)
    _BIG.fill(1.0)
    np.multiply(_BIG, 0.5, out=_BIG)
    return float(a[0] + m[0, 0] + acc + _BIG[-1])


def calibrate() -> float:
    """Median wall time of CAL_RUNS runs of the kernel, garbage collection off.

    The median ignores a single run stretched by an interrupt.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(CAL_RUNS):
            t0 = clock()
            calibration_kernel()
            times.append(clock() - t0)
        return sorted(times)[CAL_RUNS // 2]
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times calls in reference seconds and keeps the running totals.

    ``raw_s`` and ``ref_s`` sum the timed calls in wall and reference
    seconds; ``calibration_s`` sums the wall time spent in the kernel, and
    ``nested_calibration_s`` the part of it run from inside a package call.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.calibration_s = 0.0
        self.nested_calibration_s = 0.0

    def calibrate(self, nested: bool = False) -> float:
        c = calibrate()
        self.calibration_s += c
        if nested:
            self.nested_calibration_s += c
        return c

    def scale(self, raw: float, before: float, after: float) -> float:
        ref = raw * CAL_REF_S * 2.0 / (before + after)
        self.raw_s += raw
        self.ref_s += ref
        return ref

    def series(self, calls):
        """Run zero-argument ``calls`` back to back; their outputs and times.

        One calibration separates consecutive calls and serves both.
        """
        outs, times = [], []
        before = self.calibrate()
        for call in calls:
            t0 = clock()
            outs.append(call())
            raw = clock() - t0
            after = self.calibrate()
            times.append(self.scale(raw, before, after))
            before = after
        return outs, times

    def time(self, fn, *args, **kwargs):
        """Call ``fn``; its output and its time in reference seconds."""
        outs, times = self.series([lambda: fn(*args, **kwargs)])
        return outs[0], times[0]
