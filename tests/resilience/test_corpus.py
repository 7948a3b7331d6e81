"""The generative soak corpus: invariants, determinism, shard-invariance."""

from tests.resilience.soak_corpus import (
    CorpusReport,
    generate_scenario,
    run_corpus,
    run_scenario,
    trace_signature,
)


def test_generation_is_pure():
    assert generate_scenario(42) == generate_scenario(42)
    assert generate_scenario(42) != generate_scenario(43)


async def test_small_corpus_is_green():
    report = await run_corpus(count=12, base_seed=0)
    assert report.ok, [
        (result.seed, result.error) for result in report.failures
    ]
    # The generator covers the outcome space, not just happy paths.
    statuses = {result.status for result in report.results}
    assert len(statuses) >= 2, statuses


async def test_same_seed_same_signature():
    first = await run_scenario(generate_scenario(5))
    second = await run_scenario(generate_scenario(5))
    assert first.signature == second.signature
    assert first.status == second.status
    assert first.path == second.path


async def test_failure_is_captured_not_raised(monkeypatch):
    import tests.resilience.soak_corpus as corpus_module

    async def boom(scenario):
        raise RuntimeError("scripted crash")

    monkeypatch.setattr(corpus_module, "run_scenario", boom)
    report = await corpus_module.run_corpus(count=3, base_seed=9)
    assert len(report.failures) == 3
    assert all("scripted crash" in result.error for result in report.failures)
    assert [result.seed for result in report.failures] == [9, 10, 11]
    assert not report.ok


def test_report_json_round_trips():
    import json

    report = CorpusReport()
    assert json.loads(report.to_json())["scenarios"] == 0


class _Event:
    def __init__(self, at, strategy, kind_value, data):
        self.at = at
        self.strategy = strategy
        self.data = data
        self.kind = type("K", (), {"value": kind_value})()


def test_trace_signature_sensitivity():
    base = [_Event(1.0, "s", "state_entered", {"state": "canary"})]
    assert trace_signature(base) == trace_signature(list(base))
    other = [_Event(1.0, "s", "state_entered", {"state": "phase2"})]
    assert trace_signature(base) != trace_signature(other)
