"""Unit tests for the diagnostics framework: severities, spans, config."""

import pytest

from repro.lint import Diagnostic, LintConfig, LintConfigError, Severity, SourceSpan
from repro.lint.diagnostics import code_matches


# -- Severity ----------------------------------------------------------------


def test_severity_parse():
    assert Severity.parse("error") is Severity.ERROR
    assert Severity.parse("WARNING") is Severity.WARNING
    with pytest.raises(ValueError, match="unknown severity"):
        Severity.parse("fatal")


# -- SourceSpan / Diagnostic rendering --------------------------------------


def test_span_str_with_and_without_line():
    assert str(SourceSpan(line=7, file="s.yaml")) == "s.yaml:7"
    assert str(SourceSpan(file="s.yaml")) == "s.yaml"
    assert str(SourceSpan(line=3)) == "<strategy>:3"


def test_diagnostic_str_contains_code_name_state_and_location():
    diagnostic = Diagnostic(
        code="BF104",
        name="no-rollback",
        severity=Severity.ERROR,
        message="nowhere safe to go",
        span=SourceSpan(line=12, file="s.yaml"),
        state="canary",
    )
    text = str(diagnostic)
    assert "s.yaml:12" in text
    assert "BF104" in text
    assert "no-rollback" in text
    assert "canary" in text
    assert "nowhere safe to go" in text


def test_diagnostic_to_dict_round_trips_fields():
    diagnostic = Diagnostic(
        code="BF301",
        name="bad-metric-query",
        severity=Severity.ERROR,
        message="m",
        span=SourceSpan(line=4, file="x.yaml"),
        fix="fix the query",
    )
    payload = diagnostic.to_dict()
    assert payload["code"] == "BF301"
    assert payload["severity"] == "error"
    assert payload["line"] == 4
    assert payload["file"] == "x.yaml"
    assert payload["fix"] == "fix the query"
    assert "state" not in payload  # omitted when absent


# -- LintConfig --------------------------------------------------------------


def test_code_matches_exact_and_prefix():
    assert code_matches("BF301", frozenset({"BF301"}))
    assert code_matches("BF301", frozenset({"BF3"}))
    assert not code_matches("BF301", frozenset({"BF302", "BF4"}))


def test_config_select_and_ignore():
    config = LintConfig(select=frozenset({"BF1"}), ignore=frozenset({"BF104"}))
    assert config.enabled("BF101")
    assert not config.enabled("BF104")  # ignored wins inside the selection
    assert not config.enabled("BF301")  # outside the selection


def test_config_from_flags_splits_commas_and_uppercases():
    config = LintConfig.from_flags(select=["bf1,bf301", "BF2"], ignore=None)
    assert config.select == frozenset({"BF1", "BF301", "BF2"})


def test_config_merged_cli_wins():
    document = LintConfig(
        select=frozenset({"BF1"}),
        ignore=frozenset({"BF104"}),
        severities={"BF305": Severity.ERROR},
        max_unguarded_exposure=25.0,
    )
    cli = LintConfig(select=frozenset({"BF3"}), ignore=frozenset({"BF301"}))
    merged = document.merged(cli)
    assert merged.select == frozenset({"BF3"})  # CLI replaces
    assert merged.ignore == frozenset({"BF104", "BF301"})  # ignores union
    assert merged.severities == {"BF305": Severity.ERROR}
    assert merged.max_unguarded_exposure == 25.0


def test_config_from_document_full_section():
    config = LintConfig.from_document(
        {
            "select": ["BF1", "BF305"],
            "ignore": ["BF104"],
            "severity": {"BF305": "error"},
            "options": {"maxUnguardedExposure": 10},
        }
    )
    assert config.enabled("BF101")
    assert not config.enabled("BF104")
    assert config.severities["BF305"] is Severity.ERROR
    assert config.max_unguarded_exposure == 10.0


@pytest.mark.parametrize(
    "section",
    [
        ["BF1"],  # not a mapping
        {"unknown_key": 1},
        {"select": "BF1"},  # not a list
        {"select": [42]},
        {"severity": {"BF305": "fatal"}},
        {"options": {"maxUnguardedExposure": "high"}},
        {"options": {"bogus": 1}},
    ],
)
def test_config_from_document_rejects_malformed_sections(section):
    with pytest.raises(LintConfigError):
        LintConfig.from_document(section)
