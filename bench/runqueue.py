"""Run-queue delay: time this process was runnable but had no core.

The calibration kernel cancels a *slower* machine (frequency, cache, a
busy sibling thread): that shows as CPU time.  It cannot cancel a core
that is *shared*: beside two CPU hogs on two vCPUs the same loop has a
cpu/wall of 0.62, 30 % less raw throughput and a p50 half as long again
(``bench/AA.md``), none of it the code's doing.  Linux counts that time
per thread, in nanoseconds, as the second field of
``/proc/<pid>/schedstat``; the value is brought up to date whenever the
thread is put back on a core, so a thread reading its own is exact.

``clock()`` is ``time.perf_counter()`` minus that delay: a clock that
stops while the process waits for a core, and only then.  Sleeps, socket
waits and timers still pass on it, so waiting the *code* introduces still
counts.  Where the file does not exist the delay reads 0 and ``clock`` is
``perf_counter``.
"""

from __future__ import annotations

import os
import time

try:
    _FD: int | None = os.open("/proc/self/schedstat", os.O_RDONLY)
except OSError:
    _FD = None


def parse_delay_s(schedstat: bytes) -> float:
    """Seconds of run-queue delay in one ``schedstat`` line
    (``<ns on cpu> <ns waiting for a cpu> <timeslices>``)."""
    return int(schedstat.split()[1]) / 1e9


def delay_s() -> float:
    """Cumulative run-queue delay of this (single-threaded) process."""
    if _FD is None:
        return 0.0
    return parse_delay_s(os.pread(_FD, 96, 0))


def clock() -> float:
    """Seconds on a clock that stands still while another process has our core."""
    return time.perf_counter() - delay_s()
