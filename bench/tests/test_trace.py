import asyncio

import pytest

from bench.trace import Tracer, check_identity, self_times


def span(span_id, busy, parent=None, hop=False, name="x"):
    return {"id": span_id, "name": name, "busy": busy, "parent": parent, "hop": hop}


def test_self_time_is_busy_minus_stack_children():
    # handler(10) -> decide(3) -> sticky(1); handler -> send(4) -> serialize(1)
    tree = [
        span(1, 10.0),
        span(2, 3.0, parent=1),
        span(3, 1.0, parent=2),
        span(4, 4.0, parent=1),
        span(5, 1.0, parent=4),
    ]
    assert self_times(tree) == {1: 3.0, 2: 2.0, 3: 1.0, 4: 3.0, 5: 1.0}
    assert sum(self_times(tree).values()) == 10.0  # nothing lost, nothing twice


def test_a_child_across_a_hop_is_not_subtracted():
    # The upstream handler (id 2) ran in another task while the client
    # span (id 1) was suspended: both keep their whole busy time.
    tree = [span(1, 2.0), span(2, 5.0, parent=1, hop=True)]
    assert self_times(tree) == {1: 2.0, 2: 5.0}


def test_driven_coroutines_account_for_every_stretch():
    tracer = Tracer()

    def spin(seconds):
        import time

        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def leaf():
        spin(0.002)

    traced_leaf = tracer.traced(leaf, "leaf")

    async def middle():
        spin(0.001)
        traced_leaf()
        await asyncio.sleep(0)  # suspended: someone else's time
        traced_leaf()

    traced_middle = tracer.traced(middle, "middle")

    async def other():
        spin(0.003)  # untraced task interleaving with the traced one

    async def main():
        tracer.begin_window()
        import time

        started = time.perf_counter()
        await asyncio.gather(tracer.run_op("root", "op-1", traced_middle()), other())
        wall = time.perf_counter() - started
        return tracer.end_window(), wall

    window, wall = asyncio.run(main())
    assert window.calls == {"root": 1, "middle": 1, "leaf": 2}
    assert window.self_s["leaf"] == pytest.approx(0.004, rel=0.25)
    assert window.self_s["middle"] == pytest.approx(0.001, rel=0.5)
    # The untraced 3 ms are nobody's self time: they are unattributed.
    attributed = sum(window.self_s.values())
    assert attributed == pytest.approx(window.attributed_s)
    assert wall - attributed >= 0.003
    assert abs(check_identity(window, wall)) < 1e-9
    # middle was suspended across the sleep(0): wall beyond its busy time.
    assert window.wait_s[("middle", "root")] > 0.0
    records = [s.record() for s in tracer.spans]
    by_name = {r["name"]: r for r in records}
    assert by_name["middle"]["parent"] == by_name["root"]["id"]
    assert by_name["leaf"]["op_id"] == "op-1"
    assert sum(self_times(records).values()) == pytest.approx(attributed)


def test_exceptions_close_their_stretch():
    tracer = Tracer()

    async def boom():
        await asyncio.sleep(0)
        raise ValueError("no")

    traced = tracer.traced(boom, "boom")

    async def main():
        tracer.begin_window()
        with pytest.raises(ValueError):
            await traced()
        return tracer.end_window()

    window = asyncio.run(main())
    assert window.calls["boom"] == 1
    assert tracer._stack == []
