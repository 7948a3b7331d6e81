"""Static verification of built strategies: ``lint_strategy`` and its BF codes.

BF103 possible live-lock, BF104 no rollback, BF203 unroutable version,
BF204 sticky discontinuity, BF305 unmonitored exposure.
"""

from repro.core import (
    StrategyBuilder,
    ab_split,
    canary_split,
    simple_basic_check,
    single_version,
)
from repro.lint import Severity, lint_strategy


def diagnostics(strategy):
    return lint_strategy(strategy).diagnostics


def codes(found):
    return {diagnostic.code for diagnostic in found}


def make_clean_strategy():
    builder = StrategyBuilder("clean")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    builder.state("canary").route("svc", canary_split("stable", "canary", 5.0)).check(
        simple_basic_check("c", "q", "<5", 1, 3)
    ).transitions([0.5], ["rollback", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(
        rollback=True
    )
    return builder.build()


def test_clean_strategy_has_no_errors_or_warnings():
    found = diagnostics(make_clean_strategy())
    assert all(d.severity is Severity.INFO for d in found), found


def test_missing_rollback_state_is_an_error():
    builder = StrategyBuilder("no-rollback")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    builder.state("canary").route("svc", canary_split("stable", "canary", 5.0)).check(
        simple_basic_check("c", "q", "<5", 1, 3)
    ).transitions([0.5], ["done", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    found = diagnostics(builder.build())
    errors = [d for d in found if d.severity is Severity.ERROR]
    assert [d.code for d in errors] == ["BF104"]


def test_checked_state_that_cannot_reach_rollback_is_an_error():
    builder = StrategyBuilder("partial-rollback")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    # First state can reach the rollback; second cannot.
    builder.state("early").route("svc", canary_split("stable", "canary", 5.0)).check(
        simple_basic_check("c1", "q", "<5", 1, 2)
    ).transitions([0.5], ["rollback", "late"])
    builder.state("late").route("svc", canary_split("stable", "canary", 50.0)).check(
        simple_basic_check("c2", "q", "<5", 1, 2)
    ).transitions([0.5], ["done", "done"])
    builder.state("done").route("svc", single_version("canary")).final()
    builder.state("rollback").route("svc", single_version("stable")).final(
        rollback=True
    )
    found = diagnostics(builder.build())
    assert [d.state for d in found if d.code == "BF104"] == ["late"]


def test_live_lock_cycle_detected():
    builder = StrategyBuilder("loops")
    builder.service("svc", {"v": "h:1"})
    # ping <-> pong loop whose only exit edge goes back into the loop;
    # "done" is reachable only on paper via start's second edge.
    builder.state("start").dwell(1).transitions([0], ["ping", "done"])
    builder.state("ping").dwell(1).goto("pong")
    builder.state("pong").dwell(1).goto("ping")
    builder.state("done").final()
    assert "BF103" in codes(diagnostics(builder.build()))


def test_self_loop_with_exit_is_not_a_live_lock():
    builder = StrategyBuilder("retry")
    builder.service("svc", {"v": "h:1"})
    builder.state("test").dwell(1).transitions([0], ["test", "done"])
    builder.state("done").final()
    assert "BF103" not in codes(diagnostics(builder.build()))


def test_unroutable_version_warning():
    builder = StrategyBuilder("unused")
    builder.service("svc", {"stable": "h:1", "ghost": "h:2"})
    builder.state("s").route("svc", single_version("stable")).dwell(1).goto("done")
    builder.state("done").final()
    found = diagnostics(builder.build())
    warnings = [d for d in found if d.code == "BF203"]
    assert len(warnings) == 1
    assert warnings[0].severity is Severity.WARNING
    assert "ghost" in warnings[0].message


def test_unmonitored_exposure_warning():
    builder = StrategyBuilder("blind")
    builder.service("svc", {"stable": "h:1", "canary": "h:2"})
    builder.state("blind-canary").route(
        "svc", canary_split("stable", "canary", 25.0)
    ).dwell(5).goto("done")
    builder.state("done").route("svc", single_version("stable")).final()
    assert "BF305" in codes(diagnostics(builder.build()))


def test_sticky_discontinuity_info():
    builder = StrategyBuilder("churny")
    builder.service("svc", {"a": "h:1", "b": "h:2"})
    builder.state("ab").route("svc", ab_split("a", "b")).dwell(5).goto("shuffle")
    builder.state("shuffle").route("svc", canary_split("a", "b", 30.0)).dwell(5).goto(
        "done"
    )
    builder.state("done").route("svc", single_version("a")).final()
    found = diagnostics(builder.build())
    infos = [d for d in found if d.code == "BF204"]
    assert len(infos) == 1
    assert infos[0].severity is Severity.INFO
    assert infos[0].state == "ab"


def test_paper_release_strategy_known_findings():
    """Verification surfaces a real property of the paper's experiment
    strategy (section 5.1.2): once the A/B test starts, a rollback is no
    longer reachable — the winner is always rolled out.  The gradual
    rollout steps also run without checks (as in the experiment)."""
    from repro.analysis import release_strategy

    strategy = release_strategy(
        {"product": "h:1", "product_a": "h:2", "product_b": "h:3"}
    )
    found = diagnostics(strategy)
    errors = [d for d in found if d.severity is Severity.ERROR]
    assert [(d.code, d.state) for d in errors] == [("BF104", "ab-test")]
    assert "BF305" in codes(found)
