"""The compiler reports every error of a document with its code and line."""

import collections
import random
import re
from pathlib import Path

import pytest

from repro.dsl import CompiledStrategy, DslError, YamlError, compile_document
from repro.lint import fix_text, lint_text
from repro.lint.registry import RULES

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.yaml"))

# One defect in each of four elements: a transitions block with unsorted
# thresholds, a service routed above 100 %, a route to an undeclared
# version, and a fault with an unknown key.
FOUR_FAULTS = """\
strategy:
  name: four-faults
  phases:
    - phase:
        name: canary
        routes:
          - route:
              from: svc
              to: v2
              filters:
                - traffic:
                    percentage: 80
                - traffic:
                    percentage: 30
        checks:
          - metric:
              name: errors
              query: errors_total
              validator: "<5"
              intervalTime: 1
              intervalLimit: 2
        transitions:
          thresholds: [5, 3]
          targets: [rollback, canary, done]
    - final:
        name: done
        routes:
          - route:
              from: svc
              to: v9
              filters:
                - traffic:
                    percentage: 100
    - final:
        name: rollback
        rollback: true
deployment:
  services:
    svc:
      proxy: 127.0.0.1:7001
      stable: v1
      versions:
        v1: 127.0.0.1:9001
        v2: 127.0.0.1:9002
chaos:
  faults:
    - fault:
        name: outage
        target: provider:prometheus
        rate: 0.5
        blastRadius: 3
        during: [canary]
  steadyState:
    - metric:
        name: steady
        query: errors_total
        validator: "<50"
        intervalTime: 1
        intervalLimit: 2
"""


def line_of(text, needle, occurrence=1):
    lines = [n for n, line in enumerate(text.splitlines(), 1) if needle in line]
    return lines[occurrence - 1]


EXPECTED = {
    ("BF105", line_of(FOUR_FAULTS, "thresholds: [5, 3]")),
    ("BF201", line_of(FOUR_FAULTS, "from: svc")),
    ("BF202", line_of(FOUR_FAULTS, "from: svc", occurrence=2)),
    ("BF002", line_of(FOUR_FAULTS, "blastRadius: 3")),
}


def test_every_error_of_a_document_is_collected_with_code_and_line():
    with pytest.raises(DslError) as excinfo:
        compile_document(FOUR_FAULTS)
    errors = excinfo.value.errors
    assert {(error.code, error.line) for error in errors} == EXPECTED
    assert len(errors) == 4
    # The raised error is the first one, and the partial model keeps every
    # element that compiled: all three states, the check, the campaign.
    assert excinfo.value is errors[0]
    partial = excinfo.value.partial
    assert isinstance(partial, CompiledStrategy)
    assert set(partial.strategy.automaton.states) == {"canary", "done", "rollback"}
    assert [check.name for check in partial.strategy.automaton.states["canary"].checks] == [
        "errors"
    ]
    # The failed transitions block leaves the targets it declares as edges.
    assert partial.strategy.automaton.states["canary"].transitions.targets == (
        "rollback",
        "canary",
        "done",
    )
    assert partial.chaos.specs == [] and len(partial.chaos.steady_state) == 1


def test_lint_reports_each_compile_error_exactly_once():
    result = lint_text(FOUR_FAULTS, file="four.yaml")
    found = collections.Counter(
        (d.code, d.span.line) for d in result.diagnostics if d.code in RULES
    )
    for key in EXPECTED:
        assert found[key] == 1, (key, found)
    compiler_codes = {"BF002", "BF105", "BF201", "BF202"}
    assert {key for key in found if key[0] in compiler_codes} == EXPECTED


def test_bad_percentages_are_bf201_at_the_route():
    text = FOUR_FAULTS.replace("percentage: 30", "percentage: -5")
    with pytest.raises(DslError) as excinfo:
        compile_document(text)
    assert ("BF201", line_of(text, "from: svc")) in {
        (error.code, error.line) for error in excinfo.value.errors
    }
    text = FOUR_FAULTS.replace(
        "percentage: 30", "percentage: 130\n                    shadow: true"
    )
    with pytest.raises(DslError) as excinfo:
        compile_document(text)
    assert ("BF201", line_of(text, "from: svc")) in {
        (error.code, error.line) for error in excinfo.value.errors
    }


def test_duplicate_phase_name_is_an_error_at_the_phase():
    text = FOUR_FAULTS.replace("name: done", "name: canary")
    with pytest.raises(DslError) as excinfo:
        compile_document(text)
    [duplicate] = [e for e in excinfo.value.errors if "duplicate" in e.message]
    assert duplicate.code == "BF002"
    assert duplicate.line == line_of(text, "name: canary", occurrence=2)


def test_every_code_the_compiler_reports_is_a_declared_rule():
    sources = "".join(
        path.read_text(encoding="utf-8")
        for path in (ROOT / "src" / "repro" / "dsl").glob("*.py")
    )
    codes = set(re.findall(r'"(BF\d{3})"', sources))
    assert codes == {"BF002", "BF105", "BF201", "BF202", "BF501"}
    catalogue = (ROOT / "docs" / "lint.md").read_text(encoding="utf-8")
    for code in codes:
        assert code in RULES, code
        prefix = f"| {code} | {RULES[code].name} "
        [row] = [line for line in catalogue.splitlines() if line.startswith(prefix)]
        assert "reported by the compiler" in row, code


_VALUE = re.compile(r"^(\s*(?:- )?[A-Za-z_][\w.-]*:[ ]+)(\S.*?)(\s+#.*)?$")
_TOKENS = ["-5", "150", "0", "0.5", "abc", "true", "null", "[5, 3]", "[]", '"<5"']
_TOKENS += ["ghost", "done", "1e9", "-0.1", "1e309"]


def mutants(count, seed=31):
    """*count* copies of the examples, each with one value replaced."""
    texts = [path.read_text(encoding="utf-8") for path in EXAMPLES]
    rng = random.Random(seed)
    for _ in range(count):
        lines = rng.choice(texts).split("\n")
        index = rng.choice([i for i, line in enumerate(lines) if _VALUE.match(line)])
        match = _VALUE.match(lines[index])
        lines[index] = match.group(1) + rng.choice(_TOKENS) + (match.group(3) or "")
        yield "\n".join(lines)


def test_single_value_mutations_only_ever_raise_dsl_or_yaml_errors():
    rejected = 0
    for text in mutants(600):
        try:
            compile_document(text)
        except YamlError:
            continue
        except DslError as exc:
            rejected += 1
            assert isinstance(exc.partial, CompiledStrategy)
            for error in exc.errors:
                assert error.code in RULES
                # Only the whole-model check has no element, so no line.
                assert error.line is not None or not error.path, error
    assert rejected > 300


def test_lint_and_fix_stay_total_on_mutated_documents():
    for text in mutants(1200):
        fixed = fix_text(text)
        if fixed.edits:
            assert fix_text(fixed.text).edits == [], text
        for diagnostic in lint_text(text).diagnostics:
            assert not diagnostic.message.startswith("internal error"), diagnostic
