"""Generated inputs: the same seed gives the same inputs, another seed others."""

import pytest

from bench.workloads import registry


@pytest.mark.parametrize("name", sorted(registry()))
def test_fingerprint_is_stable_for_a_seed_and_changes_with_it(name):
    workload_class = registry()[name]
    first = workload_class(7).fingerprint()
    assert first == workload_class(7).fingerprint()
    assert first != workload_class(8).fingerprint()
    assert len(first) == 64


def test_windows_keep_the_mix_and_change_the_order():
    workload = registry()["proxy_active_small"](3)
    one, two = workload.prepare(0), workload.prepare(1)
    assert [op.request for op in one] != [op.request for op in two]
    for plan in (one, two):
        assert sum(op.client is None for op in plan) == len(plan) // 10
        assert sum(op.request.startswith(b"POST") for op in plan) == len(plan) // 5
    assert [op.request for op in workload.prepare(0)] == [op.request for op in one]
