"""The ``chaos:`` DSL section: compilation, validation, round-trips."""

import pytest

from repro.dsl import DslError, compile_document
from repro.dsl.serializer import serialize, to_document

BASE = """
strategy:
  name: demo
  phases:
    - phase:
        name: canary
        duration: 30
        routes:
          - route:
              from: search
              to: v2
              filters:
                - traffic:
                    percentage: 10
        checks:
          - metric:
              name: errors_ok
              provider: prometheus
              query: errors_total
              validator: "< 50"
              intervalTime: 5
              intervalLimit: 3
              threshold: 2
        next: done
        onFailure: rollback
    - final:
        name: done
    - final:
        name: rollback
        rollback: true
        routes:
          - route:
              from: search
              to: v1
              filters:
                - traffic:
                    percentage: 100
deployment:
  services:
    search:
      proxy: 127.0.0.1:9000
      stable: v1
      versions:
        v1: 127.0.0.1:8081
        v2: 127.0.0.1:8082
"""

CHAOS = """
chaos:
  name: brownout
  seed: 7
  faults:
    - fault:
        name: metrics-outage
        target: provider:prometheus
        mode: error
        rate: 0.4
        during: [canary]
    - fault:
        name: slow-upstream
        target: upstream:search
        mode: latency
        latency: 1.5
        during: [canary]
  steadyState:
    - metric:
        name: steady_errors
        provider: prometheus
        query: errors_total
        validator: "< 50"
        intervalTime: 4
        intervalLimit: 2
        threshold: 1
"""


def test_document_without_chaos_compiles_to_none():
    assert compile_document(BASE).chaos is None


def test_chaos_section_compiles():
    compiled = compile_document(BASE + CHAOS)
    campaign = compiled.chaos
    assert campaign is not None
    assert campaign.name == "brownout"
    assert campaign.seed == 7
    assert [spec.name for spec in campaign.specs] == [
        "metrics-outage",
        "slow-upstream",
    ]
    outage = campaign.specs[0]
    assert outage.target == "provider:prometheus"
    assert outage.mode == "error"
    assert outage.rate == 0.4
    assert outage.phases == ("canary",)
    assert [check.name for check in campaign.steady_state] == ["steady_errors"]


def test_chaos_round_trips_through_serializer():
    compiled = compile_document(BASE + CHAOS)
    text = serialize(compiled.strategy, compiled.deployment, compiled.chaos)
    again = compile_document(text)
    assert again.chaos.name == compiled.chaos.name
    assert again.chaos.seed == compiled.chaos.seed
    assert again.chaos.specs == compiled.chaos.specs  # frozen dataclasses
    assert [c.name for c in again.chaos.steady_state] == [
        c.name for c in compiled.chaos.steady_state
    ]


def test_serializer_omits_chaos_when_absent():
    compiled = compile_document(BASE)
    document = to_document(compiled.strategy, compiled.deployment)
    assert "chaos" not in document


def test_chaos_name_defaults_to_strategy_name():
    document = CHAOS.replace("  name: brownout\n", "")
    campaign = compile_document(BASE + document).chaos
    assert campaign.name == "demo-chaos"


def test_during_resolves_rollout_expansions():
    rollout_doc = """
strategy:
  name: staged
  phases:
    - rollout:
        name: ramp
        from: search
        to: v2
        startPercentage: 10
        stepPercentage: 40
        targetPercentage: 50
        intervalTime: 10
        next: done
    - final:
        name: done
deployment:
  services:
    search:
      proxy: 127.0.0.1:9000
      stable: v1
      versions:
        v1: 127.0.0.1:8081
        v2: 127.0.0.1:8082
chaos:
  faults:
    - fault:
        target: provider:prometheus
        during: [ramp]
  steadyState:
    - metric:
        name: steady
        provider: prometheus
        query: errors_total
        validator: "< 50"
        intervalTime: 2
        intervalLimit: 2
        threshold: 1
"""
    campaign = compile_document(rollout_doc).chaos
    # 'ramp' expands to every rollout step, not just the first.
    assert campaign.specs[0].phases == ("ramp-10", "ramp-50")


@pytest.mark.parametrize(
    "mutation, match",
    [
        (("during: [canary]", "during: [warp]"), "unknown phase"),
        (("target: provider:prometheus", "target: widget:x"), "unknown fault target"),
        (("mode: error", "mode: explode"), "unknown mode"),
        (("rate: 0.4", "rate: 1.4"), "rate"),
        # No breaker target and no 'open' mode: the check's
        # onProviderError is the one answer to a failing provider.
        (
            ("target: provider:prometheus", "target: breaker:provider:prometheus"),
            "unknown fault target",
        ),
        (("mode: error", "mode: open"), "unknown mode"),
    ],
)
def test_bad_chaos_sections_raise(mutation, match):
    old, new = mutation
    with pytest.raises(DslError, match=match):
        compile_document(BASE + CHAOS.replace(old, new))


def test_missing_during_raises():
    broken = CHAOS.replace("        during: [canary]\n", "", 1)
    with pytest.raises(DslError, match="during"):
        compile_document(BASE + broken)


def test_missing_steady_state_raises():
    broken = BASE + CHAOS.split("  steadyState:")[0]
    with pytest.raises(DslError, match="steady-state"):
        compile_document(broken)


def test_unknown_chaos_keys_rejected():
    with pytest.raises(DslError, match="unknown"):
        compile_document(BASE + CHAOS + "  blastRadius: 3\n")
