"""Calibrated seconds: timings corrected for the host's drifting speed.

The host's speed drifts by up to 2x over seconds to minutes, because other
tenants share its cores and caches.  A fixed calibration loop, timed just
before and just after an interval, measures that speed, and the interval
is scaled by REFERENCE_S over their mean.  The drift cancels; the
program's own cost does not, since the loop is not the program's code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

# Seconds the calibration loop takes on an uncontended core of the
# machine the first baseline was measured on (see README.md).
REFERENCE_S = 0.033


def _loop() -> float:
    start = time.perf_counter()
    rows = []
    for i in range(4000):
        files = frozenset((f"m{i % 7}", f"f{i % 11}", f"g{i % 13}"))
        rows.append((-Fraction(i % 97 + 1, i % 89 + 2), len(files),
                     tuple(sorted(files))))
    rows.sort()
    groups: dict[tuple, int] = {}
    for _, _, files in rows:
        groups[files] = groups.get(files, 0) + 1
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds the calibration loop takes right now.

    The loop mixes the frozenset, Fraction, sort and dict work the toolkit
    does; the fastest of three runs drops interference that hits one run.
    """
    return min(_loop() for _ in range(3))


class Calibration:
    """Scales each interval by the calibrations on either side of it."""

    def __init__(self) -> None:
        self.last = calibrate()
        self.measured: list[float] = [self.last]

    def scale(self, seconds: float) -> float:
        after = calibrate()
        self.measured.append(after)
        factor = REFERENCE_S / ((self.last + after) / 2)
        self.last = after
        return seconds * factor


class PassClock:
    """Wall time of one pass, summed over its timed sections, raw and
    calibrated; calibration runs between sections, off the clock."""

    def __init__(self, calibration: Calibration) -> None:
        self.calibration = calibration
        self.wall_s = 0.0
        self.ref_wall_s = 0.0

    @contextmanager
    def section(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - start
            self.wall_s += took
            self.ref_wall_s += self.calibration.scale(took)
