"""E5 + E6: engine scalability over parallel checks (Figures 9 and 10).

One strategy with two identical phases, each running 8·n parallel checks
(per block of 8: three availability probes against the product service
plus five Prometheus queries).  Reports engine CPU utilization (Figure 9)
and enactment delay (Figure 10).  Each point is run ``BIFROST_BENCH_REPS``
times (default 5); Figure 10 reports the median and quartiles of the
per-run delays, since one run per point moved by ±25 % between runs.

Expected shape: CPU grows with the check count without hitting a hard
ceiling in the tested range; delay grows monotonically and becomes a
substantial fraction of the specified execution time at the top end.
"""

import asyncio
import os
import statistics

import pytest

from repro.analysis import (
    format_cpu_figure,
    format_delay_figure,
    run_many_checks_sweep,
)

from .conftest import bench_repetitions, bench_scale, full_sweeps

_CACHE: dict = {}

#: Check counts are 8 x replication: compressed 8..320 vs the paper's 8..1600.
REPLICATIONS = [1, 5, 10, 20, 40]
FULL_REPLICATIONS = [1, 10, 30, 50, 70, 100, 130, 160, 200]
#: Runs per point; the figures pool their samples.
REPETITIONS = bench_repetitions(5)


def check_points():
    if "points" not in _CACHE:
        replications = FULL_REPLICATIONS if full_sweeps() else REPLICATIONS
        _CACHE["points"] = asyncio.run(
            run_many_checks_sweep(
                replications, scale=bench_scale(0.01), repetitions=REPETITIONS
            )
        )
    return _CACHE["points"]


def delay_quartiles(point) -> tuple[float, float, float]:
    """Q1, median and Q3 of a point's per-run delays."""
    if len(point.delays) == 1:
        return (point.delays[0],) * 3
    q1, median, q3 = statistics.quantiles(point.delays, n=4, method="inclusive")
    return q1, median, q3


def format_delay_quartiles(points) -> str:
    """Figure 10: the per-run delays' quartiles, beside their mean ± sd."""
    lines = [
        f"{'checks':>10s}  {'q1 (s)':>7s} {'median':>7s} {'q3 (s)':>7s}  "
        f"{'mean':>7s} {'±sd':>7s}  runs  failures"
    ]
    for point in points:
        q1, median, q3 = delay_quartiles(point)
        lines.append(
            f"{point.x:>10d}  {q1:7.3f} {median:7.3f} {q3:7.3f}  "
            f"{point.delay.mean:7.3f} {point.delay.sd:7.3f}  {point.delay.count:>4d}  {point.failed}"
        )
    return "\n".join(lines)


@pytest.mark.benchmark(group="figure9")
def test_figure9_engine_cpu_vs_parallel_checks(benchmark, artifact_writer):
    points = benchmark.pedantic(check_points, rounds=1, iterations=1)
    artifact_writer(
        "figure9_parallel_checks_cpu.txt",
        format_cpu_figure(points, xlabel="checks"),
    )
    assert all(point.failed == 0 for point in points)
    assert points[-1].cpu.median > points[0].cpu.median


@pytest.mark.benchmark(group="figure10")
def test_figure10_enactment_delay_vs_parallel_checks(benchmark, artifact_writer):
    points = benchmark.pedantic(check_points, rounds=1, iterations=1)
    artifact_writer(
        "figure10_parallel_checks_delay.txt",
        format_delay_quartiles(points),
    )
    assert all(point.failed == 0 for point in points)
    assert all(delay > -0.05 for point in points for delay in point.delays)
    # Monotone growth in the tested range (the paper's Figure 10 shape).
    assert points[-1].delay.mean >= points[0].delay.mean
    assert delay_quartiles(points[-1])[1] >= delay_quartiles(points[0])[1]


def test_checks_ceiling_sweep(artifact_writer):
    """Env-gated ceiling run far past the paper's 1,600-check x-axis.

    Off by default (it is minutes of wall clock); opt in with
    ``BIFROST_BENCH_CHECKS_CEILING=10000`` to drive one phase holding
    ~10,000 parallel checks through the shared check scheduler and verify
    the engine completes the phase with zero failed checks.
    """
    target = int(os.environ.get("BIFROST_BENCH_CHECKS_CEILING", "0"))
    if target <= 0:
        pytest.skip("set BIFROST_BENCH_CHECKS_CEILING=10000 to run the ceiling sweep")
    replication = max(1, target // 8)  # each replication block is 8 checks
    points = asyncio.run(
        run_many_checks_sweep([replication], scale=bench_scale(0.01))
    )
    artifact_writer(
        "figure9_figure10_checks_ceiling.txt",
        format_cpu_figure(points, xlabel="checks")
        + "\n"
        + format_delay_figure(points, xlabel="checks"),
    )
    point = points[0]
    assert point.failed == 0
    assert point.delay.mean > -0.05
