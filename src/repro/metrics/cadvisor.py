"""Process CPU metering — the cAdvisor stand-in.

The paper deploys cAdvisor next to every container to push CPU and memory
utilization into Prometheus.  Our "containers" are asyncio components inside
one process, so the scalability experiments (Figures 7 and 9) meter this
process' CPU time instead.

CPU utilization is computed over sampling intervals:

    cpu% = 100 * (cpu_time_delta / wall_time_delta)

which on a single-core machine is directly comparable to the single-core
VM utilization the paper reports.
"""

from __future__ import annotations

import resource
import time


def process_cpu_seconds() -> float:
    """Total user+system CPU seconds consumed by this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class CpuMeter:
    """Interval-based CPU utilization meter.

    Call :meth:`sample` periodically; each call returns the utilization
    percentage since the previous call.
    """

    def __init__(self) -> None:
        self._last_wall = time.monotonic()
        self._last_cpu = process_cpu_seconds()

    def sample(self) -> float:
        """CPU%% since the last call (0..100 per core)."""
        now_wall = time.monotonic()
        now_cpu = process_cpu_seconds()
        wall_delta = now_wall - self._last_wall
        cpu_delta = now_cpu - self._last_cpu
        self._last_wall = now_wall
        self._last_cpu = now_cpu
        if wall_delta <= 0:
            return 0.0
        return max(0.0, min(100.0, 100.0 * cpu_delta / wall_delta))

