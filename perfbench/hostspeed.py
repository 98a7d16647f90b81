"""Host-speed normalization of measured times.

The machines this benchmark runs on are shared: for identical work the
host's speed moves by up to ±30% over seconds to minutes, with other
tenants' load on the physical cores, while the guest sees no steal time.
Wall times alone then spread more between runs than any bound could
tolerate.  So every timed piece of work is bracketed by a fixed
calibration loop, and its wall time is scaled by the ratio of the
loop's nominal time to its mean measured time before and after the
piece.  The result is the piece's time at the nominal host speed.

The loop is timed in the calling thread's CPU time, so waiting for the
interpreter lock behind other threads of the program does not count as
a slow host: a program change that adds work on another thread still
shows as slower.
"""

from __future__ import annotations

import contextlib
import time
from typing import Iterator

#: the calibration loop's time at the nominal host speed
NOMINAL_S = 0.0028


def calibrate() -> float:
    """CPU seconds this thread spends on a fixed calibration loop.

    The loop does dict updates and small-tuple set inserts, the kinds of
    work fact lifting and materialization are made of; a dict loop alone
    followed the program's speed less well from one process to the next.
    """
    started = time.thread_time()
    counts: dict = {}
    for index in range(5000):
        counts[index % 1000] = counts.get(index % 1000, 0) + index
    sets: dict = {}
    for index in range(2500):
        sets.setdefault(index % 256, set()).add((index, index % 97))
    return time.thread_time() - started


class Clock:
    """Normalizes consecutive pieces of work done by one thread.

    *every* is the least number of seconds between two calibrations; a
    piece that ends sooner reuses the last one.  Open-loop clients set
    it, so that their calibrations add little load to the system under
    test.
    """

    def __init__(self, every: float = 0.0) -> None:
        self.every = every
        self._before = calibrate()
        self._calibrated = time.perf_counter()
        #: wall and normalized seconds of the last piece, and their sums
        self.last_raw = self.last = 0.0
        self.total_raw = self.total = 0.0

    def normalize(self, raw: float) -> float:
        """*raw* wall seconds that just ended, at the nominal speed."""
        after = self._before
        if time.perf_counter() - self._calibrated >= self.every:
            after = calibrate()
            self._calibrated = time.perf_counter()
        normalized = raw * 2.0 * NOMINAL_S / (self._before + after)
        self._before = after
        self.last_raw, self.last = raw, normalized
        self.total_raw += raw
        self.total += normalized
        return normalized

    @contextlib.contextmanager
    def piece(self) -> Iterator[None]:
        """Time the block; its times land in ``last_raw`` / ``last``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.normalize(time.perf_counter() - started)
