import time

import pytest

from bench.calibrate import (
    CALIB_ELASTICITY,
    CALIB_REF_CPU_S,
    neighbours_disagree,
    speed_factor,
)
from bench.harness import Window
from bench.runqueue import clock, parse_delay_s


def window(**overrides) -> Window:
    fields = dict(
        ops=400, failed=0, wall_s=0.40, cpu_s=0.396,
        latencies_s=[0.001] * 300 + [0.002] * 100,
        calib_before_s=CALIB_REF_CPU_S, calib_after_s=CALIB_REF_CPU_S,
        other_latencies_s=[], counters={},
    )
    fields.update(overrides)
    return Window(**fields)


def test_speed_factor_is_one_at_reference_speed():
    assert speed_factor(CALIB_REF_CPU_S, CALIB_REF_CPU_S) == 1.0


def test_a_slower_kernel_shrinks_every_time():
    slow = 2 * CALIB_REF_CPU_S
    assert speed_factor(slow, slow) == pytest.approx(0.5 ** CALIB_ELASTICITY)
    # The two neighbouring kernel runs are averaged.
    assert speed_factor(CALIB_REF_CPU_S, 3 * CALIB_REF_CPU_S) == speed_factor(slow, slow)
    assert speed_factor(slow, slow) < 1.0 < speed_factor(slow / 4, slow / 4)


def test_calibration_cancels_the_slowdown_a_busy_neighbour_causes():
    quiet = window()
    # The kernel got 2x slower; the workload shares 2 ** elasticity of it.
    shared = 2 ** CALIB_ELASTICITY
    slow = window(
        wall_s=0.40 * shared, cpu_s=0.396 * shared,
        latencies_s=[shared * value for value in quiet.latencies_s],
        calib_before_s=2 * CALIB_REF_CPU_S, calib_after_s=2 * CALIB_REF_CPU_S,
    )
    assert slow.throughput_per_s == pytest.approx(quiet.throughput_per_s)
    assert slow.cpu_ms_per_op == pytest.approx(quiet.cpu_ms_per_op)
    assert slow.latency_ms(0.5) == pytest.approx(quiet.latency_ms(0.5))
    assert slow.latency_ms(0.9) == pytest.approx(quiet.latency_ms(0.9))
    assert quiet.throughput_per_s == pytest.approx(1000.0)
    assert quiet.latency_ms(0.5) == pytest.approx(1.0)
    assert quiet.latency_ms(0.9) == pytest.approx(2.0)
    assert quiet.cpu_ms_per_op == pytest.approx(0.99)


def test_neighbours_disagree_beyond_ten_percent():
    assert not neighbours_disagree(0.020, 0.0219)
    assert neighbours_disagree(0.020, 0.0221)
    assert neighbours_disagree(0.0221, 0.020)  # symmetric


def test_disturbed_window_filter():
    assert not window().disturbed
    # The machine changed speed while the window ran.
    assert window(calib_after_s=1.2 * CALIB_REF_CPU_S).disturbed
    # The process lost the core for more than 5 % of the window.
    assert window(cpu_s=0.37).disturbed
    assert not window(cpu_s=0.381).disturbed


def test_time_without_a_core_is_not_charged_to_throughput():
    alone = window()
    # Two hogs on two cores: a third of the wall went to the run queue.
    shared = window(wall_s=0.60, queued_s=0.20)
    assert shared.throughput_per_s == pytest.approx(alone.throughput_per_s)
    assert shared.queued_share == pytest.approx(1 / 3)
    # cpu/wall stays raw, so the window still counts as disturbed.
    assert shared.disturbed


def test_schedstat_line_is_read_as_run_queue_seconds():
    assert parse_delay_s(b"376049000 72992000 17\n") == pytest.approx(0.072992)
    assert clock() <= time.perf_counter()
