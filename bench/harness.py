"""The measurement loop: calibrated set-ups, warm-up, calibrated windows.

One run of one workload, inside one single-threaded asyncio process:

1. ``SETUPS`` fixture builds, each timed from construction to the first
   successful op and scaled by the calibration runs around it;
2. a warm-up on the last fixture (untimed);
3. windows of fixed, seeded work until ``--seconds`` have passed (never
   fewer than ``MIN_WINDOWS``), with one calibration kernel run between
   consecutive windows.

Every metric is computed per window, scaled to reference machine speed,
and reported as the median over windows.
"""

from __future__ import annotations

import ctypes
import gc
import resource
import time
from dataclasses import dataclass

from . import runqueue, stats
from .calibrate import Calibrator, neighbours_disagree, speed_factor
from .workloads.base import Outcome, Workload

SETUPS = 5
MIN_WINDOWS = 40
WARMUP_WINDOWS = 4
#: First-half and second-half window medians further apart than this draw a
#: warning.  On a quiet machine they agree within 3 %; a neighbour arriving
#: mid-run moved healthy runs by up to 15 % (``bench/AA.md``), a leak or an
#: unfinished warm-up moves them further, and in one direction.
STATIONARITY_LIMIT = 0.20
#: Median cpu/wall below this draws a warning, with the run-queue share
#: beside it: without one the loop itself waits (a sleep or a timer crept
#: into the measured path), with one the process shares its core (0.62
#: beside two CPU hogs on two vCPUs).
MIN_RUN_BUSY_SHARE = 0.80


def pin_allocator() -> bool:
    """Stop glibc malloc from trimming and mmap-ing per socket read.

    asyncio allocates a 256 KiB scratch buffer for every ``recv``.  With
    glibc's default (dynamic) thresholds that buffer is a fresh ``mmap``
    or a ``brk`` grow-and-trim whenever it happens to sit at the top of
    the heap: four page faults per read and a 2.4x slower loop, switching
    on and off with whatever was allocated last (measured on the
    calibration kernel alone, see ``bench/AA.md``).  Fixed thresholds
    keep the buffer on the heap free list in every run.  Returns whether
    the pin took (glibc only; elsewhere the run proceeds unpinned).
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(
        mallopt(m_trim_threshold, 256 << 20) and mallopt(m_mmap_threshold, 16 << 20)
    )


class SelfCheckFailed(RuntimeError):
    """The run cannot vouch for its numbers; it prints none."""


@dataclass
class Window:
    """One measured window, raw, plus the calibration runs around it."""

    ops: int
    failed: int
    wall_s: float
    cpu_s: float
    latencies_s: list[float]
    calib_before_s: float
    calib_after_s: float
    #: Latencies kept apart from the headline (see ``Outcome``).
    other_latencies_s: list[float]
    #: Change of the workload's cumulative layer counters over the window.
    counters: dict[str, float]
    #: Part of ``wall_s`` the process was runnable but had no core
    #: (``runqueue.delay_s``); throughput is counted over the rest.
    queued_s: float = 0.0
    #: The tracer's accumulators, for windows of the traced pass.
    trace: object | None = None

    @property
    def traced(self) -> bool:
        return self.trace is not None

    @property
    def factor(self) -> float:
        return speed_factor(self.calib_before_s, self.calib_after_s)

    @property
    def busy_share(self) -> float:
        return self.cpu_s / self.wall_s

    @property
    def disturbed(self) -> bool:
        """The machine changed speed, or the process lost the core.

        Reported, not acted on: over the A/A runs, dropping these windows
        widened the spread between runs instead of narrowing it.
        """
        return (
            neighbours_disagree(self.calib_before_s, self.calib_after_s)
            or self.busy_share < stats.MIN_BUSY_SHARE
        )

    @property
    def queued_share(self) -> float:
        return self.queued_s / self.wall_s

    @property
    def calibrated_wall_s(self) -> float:
        """Wall time with a core, at reference machine speed."""
        return (self.wall_s - self.queued_s) * self.factor

    @property
    def throughput_per_s(self) -> float:
        return self.ops / self.calibrated_wall_s

    @property
    def cpu_ms_per_op(self) -> float:
        return self.cpu_s * self.factor / self.ops * 1000.0

    def latency_ms(self, q: float) -> float:
        return stats.percentile(self.latencies_s, q) * self.factor * 1000.0


@dataclass
class Measurement:
    """Everything one run measured, before it is reduced to metrics."""

    setups_s: list[float]
    windows: list[Window]
    errors: list[str]
    peak_rss_mb: float

    @property
    def untraced(self) -> list[Window]:
        """The windows end-to-end metrics may come from."""
        return [window for window in self.windows if not window.traced]


async def timed_setup(workload: Workload, calibrator: Calibrator) -> float:
    """Build the fixture through to its first op; calibrated seconds."""
    _, before = await calibrator.run()
    started = runqueue.clock()
    await workload.setup()
    elapsed = runqueue.clock() - started
    _, after = await calibrator.run()
    return elapsed * speed_factor(before, after)


async def run_window(
    workload: Workload,
    index: int,
    calibrator: Calibrator,
    before_cpu_s: float,
    tracer=None,
) -> tuple[Window, Outcome]:
    """Prepare, time and verify window *index*; calibrate after it."""
    plan = workload.prepare(index)
    counters = workload.counters()
    if tracer is not None:
        tracer.begin_window()
    queued = runqueue.delay_s()
    wall = time.perf_counter()
    cpu = time.process_time()
    outcome = await workload.run(plan)
    cpu = time.process_time() - cpu
    wall = time.perf_counter() - wall
    queued = runqueue.delay_s() - queued
    trace = tracer.end_window() if tracer is not None else None
    counters = {
        name: value - counters[name] for name, value in workload.counters().items()
    }
    await workload.verify(plan, outcome)
    _, after_cpu_s = await calibrator.run()
    window = Window(
        ops=outcome.ops,
        failed=outcome.failed,
        wall_s=wall,
        cpu_s=cpu,
        latencies_s=outcome.latencies_s,
        calib_before_s=before_cpu_s,
        calib_after_s=after_cpu_s,
        other_latencies_s=outcome.other_latencies_s,
        counters=counters,
        queued_s=queued,
        trace=trace,
    )
    return window, outcome


async def measure(
    workload_class: type[Workload],
    seed: int,
    seconds: float,
    tracer=None,
) -> tuple[Measurement, Workload]:
    """Run one workload; with *tracer*, the second half of the windows is
    traced (the first half stays untraced to price the tracing itself)."""
    pin_allocator()
    calibrator = Calibrator()
    await calibrator.start()
    setups_s = []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            await workload.teardown()
        workload = workload_class(seed)
        setups_s.append(await timed_setup(workload, calibrator))
    assert workload is not None

    for index in range(WARMUP_WINDOWS):
        await workload.run(workload.prepare(-1 - index))
    # Fixture objects are permanent from here on: keep the collector from
    # re-walking them, so its cost reflects the work done per window.
    gc.collect()
    gc.freeze()

    windows: list[Window] = []
    errors: list[str] = []
    _, calib = await calibrator.run()
    started = time.perf_counter()
    minimum = MIN_WINDOWS if tracer is None else MIN_WINDOWS // 2
    traced = False
    while True:
        elapsed = time.perf_counter() - started
        if len(windows) >= minimum and elapsed >= seconds:
            break
        if tracer is not None and not traced and (
            elapsed >= seconds / 2 and len(windows) >= minimum // 2
        ):
            tracer.install(workload)
            traced = True
        window, outcome = await run_window(
            workload, len(windows), calibrator, calib, tracer if traced else None
        )
        calib = window.calib_after_s
        windows.append(window)
        errors.extend(outcome.errors)
    errors.extend(workload.finish())
    if tracer is not None:
        tracer.uninstall()
    await workload.teardown()
    await calibrator.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Measurement(setups_s, windows, errors[:20], peak_rss_mb), workload


def end_to_end(measurement: Measurement) -> dict[str, float]:
    """The six end-to-end metrics from the untraced windows."""
    windows = measurement.untraced
    return {
        "setup_s": stats.median(measurement.setups_s),
        "throughput_per_s": stats.median(w.throughput_per_s for w in windows),
        "latency_p50_ms": stats.median(w.latency_ms(0.5) for w in windows),
        "latency_p90_ms": stats.median(w.latency_ms(0.9) for w in windows),
        "cpu_ms_per_op": stats.median(w.cpu_ms_per_op for w in windows),
        "peak_rss_mb": measurement.peak_rss_mb,
    }


def diagnostics(measurement: Measurement) -> dict[str, float]:
    """``harness.*``: what the method itself did to the numbers."""
    untraced = measurement.untraced
    return {
        "harness.raw_throughput_per_s": stats.median(w.ops / w.wall_s for w in untraced),
        "harness.raw_latency_p50_ms": stats.median(
            stats.percentile(w.latencies_s, 0.5) * 1000.0 for w in untraced
        ),
        "harness.latency_p99_ms": stats.median(w.latency_ms(0.99) for w in untraced),
        "harness.speed_factor_median": stats.median(w.factor for w in untraced),
        "harness.windows_disturbed_share": sum(w.disturbed for w in untraced) / len(untraced),
        "harness.busy_share": stats.median(w.busy_share for w in untraced),
        "harness.queued_share": stats.median(w.queued_share for w in untraced),
        "harness.trend_ratio": stats.trend_ratio([w.throughput_per_s for w in untraced]),
    }


def environment_warnings(measurement: Measurement) -> list[str]:
    """What the machine, not the code, may have done to this run.

    Warnings, not failures: the same code beside two CPU hogs has a
    cpu/wall of 0.62 and a run that straddles a neighbour's arrival drifts
    by 15 %, and a run that exits non-zero for its neighbours' behaviour
    cannot gate anything.  The values are published as
    ``harness.busy_share`` and ``harness.trend_ratio``.
    """
    untraced = measurement.untraced
    warnings = []
    busy = stats.median(w.busy_share for w in untraced)
    if busy < MIN_RUN_BUSY_SHARE:
        queued = stats.median(w.queued_share for w in untraced)
        warnings.append(
            f"cpu/wall {busy:.3f} < {MIN_RUN_BUSY_SHARE} ({queued:.3f} of wall on the "
            "run queue): the process shares its core, or the loop waits"
        )
    if len(untraced) >= MIN_WINDOWS:  # the traced pass has too few to tell
        trend = stats.trend_ratio([w.throughput_per_s for w in untraced])
        if abs(trend - 1.0) > STATIONARITY_LIMIT:
            warnings.append(f"not stationary: second half / first half = {trend:.3f}")
    return warnings


def self_check(measurement: Measurement) -> None:
    """Fail the run rather than print a number it cannot vouch for.

    Only what the code under test and the harness decide fails a run: the
    sample count behind p90 here, the traced accounting identity in
    ``layers.per_layer``.  What the machine decides is a warning.
    """
    short = min(len(w.latencies_s) for w in measurement.untraced)
    if not stats.supports_percentile(short, 0.9):
        raise SelfCheckFailed(f"a window has {short} latency samples: too few beyond p90")
