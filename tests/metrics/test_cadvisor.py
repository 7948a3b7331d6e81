"""Tests for the CPU meter (cAdvisor stand-in)."""

import time

from repro.metrics import CpuMeter
from repro.metrics.cadvisor import process_cpu_seconds


def test_process_cpu_seconds_increases_under_load():
    before = process_cpu_seconds()
    deadline = time.monotonic() + 0.05
    while time.monotonic() < deadline:
        sum(range(1000))
    assert process_cpu_seconds() > before


def test_cpu_meter_busy_loop_shows_high_utilization():
    meter = CpuMeter()
    deadline = time.monotonic() + 0.05
    while time.monotonic() < deadline:
        sum(range(1000))
    cpu = meter.sample()
    assert 10.0 <= cpu <= 100.0


def test_cpu_meter_bounds():
    meter = CpuMeter()
    time.sleep(0.02)
    assert 0.0 <= meter.sample() <= 100.0

