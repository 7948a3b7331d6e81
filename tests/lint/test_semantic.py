"""The BF6xx semantic analysis rules (lint/semantic.py)."""

from repro.lint import LintConfig, lint_text
from repro.lint.registry import RULES


def lint(document, **kwargs):
    return lint_text(document, **kwargs)


def line_of(document, needle, occurrence=1):
    """1-based line number of the *occurrence*-th line containing needle."""
    seen = 0
    for number, line in enumerate(document.splitlines(), start=1):
        if needle in line:
            seen += 1
            if seen == occurrence:
                return number
    raise AssertionError(f"{needle!r} not found")


def by_code(result, code):
    return [d for d in result.diagnostics if d.code == code]


def document(validator='"< 50"', query="errors_total", extra="", chaos=""):
    return f"""\
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
              query: {query}
              validator: {validator}
              intervalTime: 5
              intervalLimit: 3
              threshold: 2
        next: done
        onFailure: rollback
{extra}    - final:
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
{chaos}"""


# -- BF601: unsatisfiable checks ---------------------------------------------


def test_bf601_flags_provably_unsatisfiable_validator():
    doc = document(validator='"< 0"')
    result = lint(doc)
    [diagnostic] = by_code(result, "BF601")
    assert "can never hold" in diagnostic.message
    assert "[0, +inf]" in diagnostic.message
    assert diagnostic.state == "canary"
    # The span anchors at the validator key, line- and column-accurate.
    assert diagnostic.span.line == line_of(doc, 'validator: "< 0"')
    column = doc.splitlines()[diagnostic.span.line - 1].index("validator") + 1
    assert diagnostic.span.column == column
    assert diagnostic.span.end_column == column + len("validator")


def test_bf601_is_blocking():
    assert RULES["BF601"].blocking
    assert RULES["BF605"].blocking
    assert not RULES["BF602"].blocking


def test_bf601_on_steady_state_hypothesis():
    chaos = """\
chaos:
  faults:
    - fault:
        name: outage
        target: provider:prometheus
        rate: 0.5
        during: [canary]
  steadyState:
    - metric:
        name: impossible
        provider: prometheus
        query: saturation_ratio
        validator: "> 2"
        intervalTime: 4
        intervalLimit: 2
        threshold: 1
"""
    doc = document(chaos=chaos)
    result = lint(doc)
    [diagnostic] = by_code(result, "BF601")
    assert "steady-state hypothesis" in diagnostic.message
    assert "violated unconditionally" in diagnostic.message
    assert diagnostic.span.line == line_of(doc, 'validator: "> 2"')


def test_bf601_skips_foreign_providers_and_bad_queries():
    # A provider the domain knows nothing about: no verdict.
    clean = lint(document().replace("provider: prometheus", "provider: statsd"))
    assert not by_code(clean, "BF601")
    # A query that does not compile is BF301's business.
    broken = lint(document(query="rate((((", validator='"< 0"'))
    assert not by_code(broken, "BF601")
    assert by_code(broken, "BF301")


def test_bf601_respects_explicit_subject():
    doc = document().replace(
        "              provider: prometheus\n"
        "              query: errors_total\n"
        "              validator: \"< 50\"\n",
        "              validator: \"< 0\"\n"
        "              subject: q_ratio\n"
        "              providers:\n"
        "                - prometheus:\n"
        "                    name: q_ratio\n"
        "                    query: saturation_ratio\n",
    )
    result = lint(doc)
    [diagnostic] = by_code(result, "BF601")
    assert "[0, 1]" in diagnostic.message


# -- BF602: tautological checks ----------------------------------------------


def test_bf602_flags_tautological_validator():
    doc = document(query="saturation_ratio")  # [0, 1] vs "< 50"
    result = lint(doc)
    [diagnostic] = by_code(result, "BF602")
    assert "always holds" in diagnostic.message
    assert "no signal" in diagnostic.message
    assert diagnostic.span.line == line_of(doc, 'validator: "< 50"')


def test_bf602_not_raised_for_satisfiable_falsifiable_checks():
    result = lint(document())  # errors_total in [0, inf) vs "< 50"
    assert not by_code(result, "BF602")
    assert not by_code(result, "BF601")


def test_bf602_not_raised_for_a_ratio_that_can_be_zero_over_zero():
    # With no traffic the ratio is 0/0, NaN, and the check fails.
    ratio = document(validator='">= 0"', query='"errors_total / requests_total"')
    assert not by_code(lint(ratio), "BF602")
    shifted = document(validator='">= 0"', query='"(errors_total + 1) / requests_total"')
    assert by_code(lint(shifted), "BF602")


def test_bf602_suppressible_inline():
    doc = document(query="saturation_ratio").replace(
        'validator: "< 50"',
        'validator: "< 50"  # bifrost: ignore[BF602]',
    )
    result = lint(doc)
    assert not by_code(result, "BF602")
    assert result.suppressed == 1


# -- BF603: unchecked blast-radius jumps -------------------------------------


JUMP = """\
    - phase:
        name: flood
        duration: 10
        routes:
          - route:
              from: search
              to: v2
              filters:
                - traffic:
                    percentage: 90
        next: done
"""


def test_bf603_flags_jump_out_of_checkless_phase():
    # canary (10%, with checks) -> staging (no checks) -> flood (90%).
    staging = """\
    - phase:
        name: staging
        duration: 10
        next: flood
"""
    doc = document(extra=staging + JUMP).replace("next: done", "next: staging", 1)
    result = lint(doc)
    [diagnostic] = by_code(result, "BF603")
    assert diagnostic.state == "flood"
    assert "'staging' runs no checks" in diagnostic.message
    assert diagnostic.span.line == line_of(doc, "name: flood")


def test_bf603_quiet_when_previous_phase_has_checks():
    doc = document(extra=JUMP).replace("next: done", "next: flood", 1)
    result = lint(doc)
    assert not by_code(result, "BF603")


def test_bf603_flags_start_state_opening_wide():
    doc = document().replace("percentage: 10", "percentage: 80", 1)
    # Drop the checks so the start phase is unchecked but keep structure.
    result = lint(doc)
    [diagnostic] = by_code(result, "BF603")
    assert "opens 'search' at 80%" in diagnostic.message
    assert diagnostic.state == "canary"


def test_bf603_threshold_configurable_via_options():
    doc = document().replace("percentage: 10", "percentage: 40", 1)
    assert not by_code(lint(doc), "BF603")
    tightened = "lint:\n  options:\n    maxExposureJump: 30\n" + doc
    [diagnostic] = by_code(lint(tightened), "BF603")
    assert "threshold 30" in diagnostic.message


# -- BF604: shadow amplification ---------------------------------------------


def test_bf604_flags_fanout_beyond_bound():
    shadows = """\
          - route:
              from: search
              to: v2
              filters:
                - traffic:
                    shadow: true
                    percentage: 80
          - route:
              from: search
              to: v1
              filters:
                - traffic:
                    shadow: true
                    percentage: 70
"""
    doc = document().replace(
        "        checks:", shadows + "        checks:", 1
    )
    result = lint(doc)
    [diagnostic] = by_code(result, "BF604")
    assert "150%" in diagnostic.message
    assert "1.50x duplication" in diagnostic.message
    assert diagnostic.state == "canary"


def test_bf604_quiet_at_or_under_bound():
    shadow = """\
          - route:
              from: search
              to: v1
              filters:
                - traffic:
                    shadow: true
                    percentage: 100
"""
    doc = document().replace("        checks:", shadow + "        checks:", 1)
    assert not by_code(lint(doc), "BF604")


# -- BF605: chaos-hypothesis contradictions ----------------------------------


def chaos_section(rate="1.0", mode=None, policy=None):
    mode_line = f"        mode: {mode}\n" if mode else ""
    # onProviderError belongs to exception checks only.
    policy_line = (
        f"        type: exception\n        fallback: rollback\n"
        f"        onProviderError: {policy}\n"
        if policy
        else ""
    )
    return f"""\
chaos:
  faults:
    - fault:
        name: outage
        target: provider:prometheus
{mode_line}        rate: {rate}
        during: [canary]
  steadyState:
    - metric:
        name: steady_errors
        provider: prometheus
        query: errors_total
        validator: "< 50"
{policy_line}        intervalTime: 4
        intervalLimit: 2
        threshold: 1
"""


def test_bf605_flags_full_rate_fault_on_hypothesis_provider():
    doc = document(chaos=chaos_section())
    result = lint(doc)
    [diagnostic] = by_code(result, "BF605")
    assert "falsified by the fault itself" in diagnostic.message
    assert diagnostic.span.line == line_of(doc, "name: outage")
    # The related location points at the hypothesis that reads through it.
    [(note, span)] = diagnostic.related
    assert "reads through" in note
    assert span.line == line_of(doc, 'validator: "< 50"', occurrence=2)


def test_bf605_hold_policy_is_blindness_not_falsification():
    doc = document(chaos=chaos_section(policy="hold"))
    [diagnostic] = by_code(lint(doc), "BF605")
    assert "blinded" in diagnostic.message


def test_bf605_quiet_below_full_rate_or_latency_mode():
    assert not by_code(lint(document(chaos=chaos_section(rate="0.9"))), "BF605")
    assert not by_code(
        lint(document(chaos=chaos_section(mode="latency"))), "BF605"
    )


def test_bf605_quiet_when_hypothesis_reads_elsewhere():
    chaos = chaos_section().replace("target: provider:prometheus",
                                    "target: upstream:search")
    assert not by_code(lint(document(chaos=chaos)), "BF605")


# -- cross-cutting -----------------------------------------------------------


def test_semantic_rules_gate_enactment():
    import pytest

    from repro.clock import VirtualClock
    from repro.core import RecordingController
    from repro.core.engine import Engine, StrategyRejectedError
    from repro.dsl import compile_document

    compiled = compile_document(document(validator='"< 0"'))
    engine = Engine(controller=RecordingController(), clock=VirtualClock())
    with pytest.raises(StrategyRejectedError) as excinfo:
        engine.enact(compiled.strategy)
    assert "BF601" in str(excinfo.value)


def test_semantic_rules_selectable_as_group():
    doc = document(validator='"< 0"')
    result = lint_text(doc, config=LintConfig.from_flags(select=["BF6"]))
    assert {d.code for d in result.diagnostics} == {"BF601"}


def test_each_check_is_analysed_once_per_lint_run(monkeypatch):
    import repro.lint.semantic as semantic
    from repro.core import StrategyBuilder, canary_split, simple_basic_check, single_version
    from repro.lint import lint_strategy

    bounded = []
    interval_of = semantic.interval_of

    def counting_interval_of(expression):
        bounded.append(expression)
        return interval_of(expression)

    monkeypatch.setattr(semantic, "interval_of", counting_interval_of)
    builder = StrategyBuilder("analysed")
    builder.service("search", {"v1": "h:1", "v2": "h:2"})
    canary = builder.state("canary").route("search", canary_split("v1", "v2", 10.0))
    for name, query, validator, provider in [
        ("errors", "errors_total", "<50", "prometheus"),
        ("never", "errors_total", "<0", "prometheus"),  # BF601
        ("rate", "rate(requests_total[30s])", ">1", "prometheus"),
        ("foreign", "errors_total", "<50", "health"),  # not analyzable
        ("broken", "rate((((", "<50", "prometheus"),  # not analyzable
    ]:
        canary.check(simple_basic_check(name, query, validator, 1, 2, provider=provider))
    canary.transitions([4.5], ["rollback", "done"])
    builder.state("done").route("search", single_version("v2")).final()
    builder.state("rollback").route("search", single_version("v1")).final(rollback=True)

    result = lint_strategy(builder.build())
    assert len(bounded) == 3
    assert [d.state for d in by_code(result, "BF601")] == ["canary"]
