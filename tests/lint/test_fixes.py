"""The autofix engine (lint/fixes.py)."""

from pathlib import Path

import pytest

from repro.dsl import compile_document, serialize
from repro.lint import fix_path, fix_text, lint_text

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.yaml")
)

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


def codes(text):
    return {d.code for d in lint_text(text).diagnostics}


# -- BF105: sort/dedup thresholds --------------------------------------------


def test_fix_sorts_unsorted_thresholds():
    doc = BASE.replace(
        "        next: done\n        onFailure: rollback\n",
        "        transitions:\n"
        "          thresholds: [5, 3]\n"
        "          targets: [rollback, canary, done]\n",
    )
    assert "BF105" in codes(doc)
    result = fix_text(doc)
    assert "thresholds: [3, 5]" in result.text
    assert "BF105" not in codes(result.text)
    assert any(e.code == "BF105" for e in result.edits)


def test_fix_dedups_thresholds_and_drops_empty_range_target():
    doc = BASE.replace(
        "        next: done\n        onFailure: rollback\n",
        "        transitions:\n"
        "          thresholds: [3, 3]\n"
        "          targets: [rollback, canary, done]\n",
    )
    result = fix_text(doc)
    assert "thresholds: [3]" in result.text
    # The target of the empty duplicate range (index 1) is dropped.
    assert "targets: [rollback, done]" in result.text
    assert "BF105" not in codes(result.text)


def test_fix_dedups_check_output_thresholds_with_outcomes():
    doc = BASE.replace(
        "              threshold: 2\n",
        "              thresholds: [2, 2]\n"
        "              outcomes: [-1, 0, 1]\n",
    )
    result = fix_text(doc)
    assert "thresholds: [2]" in result.text
    assert "outcomes: [-1, 1]" in result.text


def test_fix_leaves_thresholds_alone_without_matching_companion():
    # Arity mismatch: deduping would only change which rule fires.
    doc = BASE.replace(
        "        next: done\n        onFailure: rollback\n",
        "        transitions:\n"
        "          thresholds: [3, 3]\n"
        "          targets: [rollback, done]\n",
    )
    result = fix_text(doc)
    assert "thresholds: [3, 3]" in result.text


# -- BF107: closest-match typos ----------------------------------------------


def test_fix_rewrites_unknown_state_typo():
    doc = BASE.replace("next: done", "next: doen")
    assert "BF107" in codes(doc)
    result = fix_text(doc)
    assert "next: done" in result.text
    assert "BF107" not in codes(result.text)
    [edit] = [e for e in result.edits if e.code == "BF107"]
    assert "'doen' -> 'done'" in edit.description


def test_fix_rewrites_typo_in_transition_targets():
    doc = BASE.replace(
        "        next: done\n        onFailure: rollback\n",
        "        transitions:\n"
        "          thresholds: [3]\n"
        "          targets: [rolback, done]\n",
    )
    result = fix_text(doc)
    assert "targets: [rollback, done]" in result.text


def test_fix_leaves_ambiguous_and_dissimilar_typos_alone():
    # Nothing within similarity 0.6 of "zzz" — no guess.
    doc = BASE.replace("next: done", "next: zzz")
    result = fix_text(doc)
    assert "next: zzz" in result.text
    assert "BF107" in codes(result.text)


# -- BF201: normalize split sums ---------------------------------------------


def test_fix_rescales_overflowing_splits_proportionally():
    doc = BASE.replace(
        "                - traffic:\n                    percentage: 10\n",
        "                - traffic:\n                    percentage: 120\n"
        "                - traffic:\n                    percentage: 80\n",
    )
    assert "BF201" in codes(doc)
    result = fix_text(doc)
    assert "percentage: 60" in result.text
    assert "percentage: 40" in result.text
    assert "BF201" not in codes(result.text)


def test_fix_never_rescales_to_above_hundred():
    doc = BASE.replace(
        "                - traffic:\n                    percentage: 10\n",
        "                - traffic:\n                    percentage: 100.1\n"
        "                - traffic:\n                    percentage: 33.33\n"
        "                - traffic:\n                    percentage: 66.67\n",
    )
    result = fix_text(doc)
    fixed = lint_text(result.text)
    assert "BF201" not in {d.code for d in fixed.diagnostics}


def test_fix_leaves_negative_splits_to_humans():
    doc = BASE.replace("percentage: 10", "percentage: -10", 1)
    result = fix_text(doc)
    assert "percentage: -10" in result.text


def test_fix_leaves_infinite_splits_to_humans():
    doc = BASE.replace("percentage: 10", "percentage: 1e309", 1)
    result = fix_text(doc)
    assert "percentage: 1e309" in result.text
    assert "BF201" in codes(result.text)


# -- BF503: steadyState stub -------------------------------------------------


CHAOS = """\
chaos:
  faults:
    - fault:
        name: outage
        target: provider:prometheus
        rate: 0.5
        during: [canary]
"""


def test_fix_stubs_missing_steady_state():
    doc = BASE + CHAOS
    assert "BF503" in codes(doc)
    result = fix_text(doc)
    assert "steadyState:" in result.text
    after = codes(result.text)
    assert "BF503" not in after
    # The stub copies the first strategy check's condition.
    assert "query: errors_total" in result.text.split("steadyState:")[1]
    assert 'validator: "< 50"' in result.text.split("steadyState:")[1]


def test_fix_stub_avoids_provider_contradicted_by_full_rate_fault():
    doc = BASE + CHAOS.replace("rate: 0.5", "rate: 1.0")
    result = fix_text(doc)
    stub = result.text.split("steadyState:")[1]
    # prometheus is fully faulted; the stub must not read through it via
    # the strategy check — the generic fallback is used instead.
    assert "query: up" in stub
    assert "BF503" not in codes(result.text)


# -- global guarantees -------------------------------------------------------


def test_fix_is_idempotent_on_defective_documents():
    doc = (
        BASE.replace("next: done", "next: doen")
        .replace("percentage: 10", "percentage: 120", 1)
        + CHAOS
    )
    once = fix_text(doc)
    twice = fix_text(once.text)
    assert once.changed
    assert not twice.changed
    assert twice.text == once.text


def test_fix_returns_clean_documents_byte_for_byte():
    assert not fix_text(BASE).changed
    assert fix_text(BASE).text == BASE


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_fix_is_noop_on_shipped_examples(path):
    text = path.read_text(encoding="utf-8")
    result = fix_text(text, file=str(path))
    assert not result.changed, [str(e) for e in result.edits]
    assert result.text == text


def test_fix_preserves_enactment_semantics_of_clean_strategies():
    # Serializer round-trip equality: fixing a clean document must leave
    # the compiled strategy (and hence enactment) bit-identical.
    for path in EXAMPLES:
        text = path.read_text(encoding="utf-8")
        fixed = fix_text(text).text
        before = compile_document(text)
        after = compile_document(fixed)
        assert serialize(
            before.strategy, before.deployment, before.chaos
        ) == serialize(after.strategy, after.deployment, after.chaos)


def test_fixed_defective_document_compiles_and_lints_clean_of_errors():
    doc = (
        BASE.replace("next: done", "next: doen")
        .replace("percentage: 10", "percentage: 120", 1)
        + CHAOS
    )
    result = fix_text(doc)
    after = lint_text(result.text)
    assert not after.errors, [str(d) for d in after.errors]
    compile_document(result.text)  # must not raise


def test_fix_path_rewrites_file_in_place(tmp_path):
    target = tmp_path / "strategy.yaml"
    target.write_text(BASE.replace("next: done", "next: doen"))
    result = fix_path(str(target))
    assert result.changed
    assert "next: done" in target.read_text()
    # Second run: no edits, file untouched.
    before = target.stat().st_mtime_ns
    assert not fix_path(str(target)).changed
    assert target.stat().st_mtime_ns == before
