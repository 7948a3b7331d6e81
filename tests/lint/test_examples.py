"""Every YAML strategy shipped under examples/ must lint clean.

If an example legitimately needs to demonstrate a finding, add it to
EXPECTED_FINDINGS with the rule codes it is allowed to trip — anything
not listed must produce zero diagnostics even at --strict.

The offline analysis example runs end to end, so its API calls cannot rot.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.lint import lint_path

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.yaml"))

#: path name -> set of rule codes the example is expected to trip.
EXPECTED_FINDINGS: dict[str, set[str]] = {}


def test_examples_exist():
    assert EXAMPLES, "no YAML examples found — did examples/ move?"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_lints_clean_or_matches_manifest(path):
    result = lint_path(str(path))
    expected = EXPECTED_FINDINGS.get(path.name, set())
    unexpected = [d for d in result.diagnostics if d.code not in expected]
    assert not unexpected, "\n".join(str(d) for d in unexpected)
    missing = expected - {d.code for d in result.diagnostics}
    assert not missing, f"manifest expects {sorted(missing)} but they no longer fire"


def test_strategy_analysis_example_runs(capsys):
    path = EXAMPLES_DIR / "strategy_analysis.py"
    spec = importlib.util.spec_from_file_location("strategy_analysis", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    example.main()
    out = capsys.readouterr().out
    assert "no findings — every risky state can reach the rollback state" in out
    assert "per-phase success 95%: expected rollout 7.78 days" in out
