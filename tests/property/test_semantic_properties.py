"""Properties of the semantic pass (BF6xx) and the autofix engine.

* the semantic rules are **total** and **deterministic** over every
  strategy the resilience corpus can generate, and report **zero
  findings** on them — lints-clean still implies compiles-and-enacts
  for the whole soak corpus;
* `fix_text` is **idempotent** and never changes a clean document;
* fixing a defective document converges and the fixed text re-lints
  clean of the defects the fixers own.
"""

from hypothesis import given, settings, strategies as st

from repro.lint import fix_text, lint_strategy, lint_text
from tests.resilience.soak_corpus import (
    _build_campaign,
    _build_strategy,
    generate_scenario,
)

CORPUS_SIZE = 200


def corpus_lint(seed):
    scenario = generate_scenario(seed)
    return lint_strategy(
        _build_strategy(scenario), campaign=_build_campaign(scenario)
    )


def test_semantic_pass_reports_zero_findings_on_whole_corpus():
    offending = {}
    for seed in range(CORPUS_SIZE):
        findings = [
            d
            for d in corpus_lint(seed).diagnostics
            if d.code.startswith("BF6")
        ]
        if findings:
            offending[seed] = [str(d) for d in findings]
    assert not offending, offending


@given(st.integers(min_value=0, max_value=CORPUS_SIZE - 1))
@settings(max_examples=30, deadline=None)
def test_semantic_pass_is_deterministic_over_corpus(seed):
    first = corpus_lint(seed)
    second = corpus_lint(seed)
    assert [str(d) for d in first.diagnostics] == [
        str(d) for d in second.diagnostics
    ]


BASE = """\
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
                    percentage: {percentage}
        checks:
          - metric:
              name: errors_ok
              provider: prometheus
              query: errors_total
              validator: "< 50"
              intervalTime: 5
              intervalLimit: 3
              threshold: 2
        transitions:
          thresholds: [{thresholds}]
          targets: [{targets}]
    - final:
        name: done
    - final:
        name: rollback
        rollback: true
deployment:
  services:
    search:
      proxy: 127.0.0.1:9000
      stable: v1
      versions:
        v1: 127.0.0.1:8081
        v2: 127.0.0.1:8082
{chaos}"""

CHAOS = """\
chaos:
  faults:
    - fault:
        name: outage
        target: provider:prometheus
        rate: 0.5
        during: [canary]
"""

names = st.sampled_from(["done", "doen", "rollback", "rolback", "elsewhere"])


@st.composite
def documents(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    thresholds = draw(
        st.lists(
            st.integers(min_value=0, max_value=9),
            min_size=count,
            max_size=count,
        )
    )
    targets = draw(st.lists(names, min_size=count + 1, max_size=count + 1))
    percentage = draw(st.sampled_from([10, 50, 120, 250]))
    chaos = draw(st.sampled_from(["", CHAOS]))
    return BASE.format(
        percentage=percentage,
        thresholds=", ".join(str(t) for t in thresholds),
        targets=", ".join(targets),
        chaos=chaos,
    )


@given(documents())
@settings(max_examples=60, deadline=None)
def test_fix_is_idempotent_and_total(document):
    once = fix_text(document)
    twice = fix_text(once.text)
    assert twice.text == once.text
    assert not twice.changed


@given(documents())
@settings(max_examples=60, deadline=None)
def test_fix_never_touches_clean_documents(document):
    result = lint_text(document)
    if result.diagnostics:
        return  # only clean documents carry the byte-identity guarantee
    assert fix_text(document).text == document


@given(documents())
@settings(max_examples=60, deadline=None)
def test_fix_clears_every_fixer_owned_defect_it_can(document):
    fixed = fix_text(document)
    if not fixed.changed:
        return
    before = {d.code for d in lint_text(document).diagnostics}
    after = {d.code for d in lint_text(fixed.text).diagnostics}
    # Fixing must never introduce defects of the classes the fixers own.
    for code in ("BF105", "BF201", "BF503"):
        assert not (code in after and code not in before)
