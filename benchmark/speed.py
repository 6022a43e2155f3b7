"""Timing scaled to a reference interpreter speed.

On a shared machine the speed of one core drifts by a third within seconds
and between runs.  The stopwatch therefore runs a fixed calibration workload
of plain Python (no kernel code, about 10 ms) before and after every timed
interval.  An interval's scaled time is its wall time multiplied by
``REFERENCE_S`` over the median calibration time within ``WINDOW_S`` of the
interval: the time the operation takes when the calibration runs in
``REFERENCE_S``.  On a quiet machine of the reference speed it equals the
wall time.  Raw wall times are kept beside the scaled ones.
"""

import bisect
import gc
import statistics
import time

REFERENCE_S = 0.010
WINDOW_S = 5.0


class _P:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float):
        self.x, self.y, self.z = x, y, z


def _calibration_work() -> float:
    # the interpreter work the kernel does: small objects, dicts, float
    # arithmetic, attribute access and a keyed sort
    d = {}
    acc = 0.0
    for i in range(6000):
        p = _P(i * 0.5, i * 0.25, -i * 0.125)
        d[i] = p
        q = d[i // 2]
        acc += (p.x - q.x) ** 2 + (p.y - q.y) ** 2 + abs(p.z - q.z)
    keys = sorted(d, key=lambda k: -d[k].z)
    return acc + keys[0]


class Stopwatch:
    """``with stopwatch:`` times a block; ``interval`` is the last one timed.

    Consecutive blocks share the calibration between them.
    """

    def __init__(self):
        self._cal_at: list[float] = []
        self._cal_s: list[float] = []
        self.interval = (0.0, 0.0)
        self.recalibrate()

    def recalibrate(self, times: int = 1) -> None:
        # with the collector off, the calibration's objects cannot set off a
        # collection that walks the kernel's heap, so its time does not
        # depend on how much the kernel keeps alive
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                t0 = time.perf_counter()
                _calibration_work()
                t1 = time.perf_counter()
                self._cal_at.append(t0)
                self._cal_s.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.interval = (self._t0, time.perf_counter())
        self.recalibrate()
        return False

    def scaled(self, interval: tuple[float, float]) -> float:
        """Scaled seconds of an interval timed by this stopwatch."""
        t0, t1 = interval
        lo = bisect.bisect_left(self._cal_at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self._cal_at, t1 + WINDOW_S)
        return (t1 - t0) * REFERENCE_S / statistics.median(self._cal_s[lo:hi])
