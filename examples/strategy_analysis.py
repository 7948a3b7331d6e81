"""Offline strategy analysis: verify before you fly.

The paper argues that formalizing release strategies enables reasoning
and verification tools (sections 1 and 7).  This example runs both layers
on the running example's strategy *without deploying anything*:

* static verification (``repro.lint``) — is a rollback reachable from
  every risky state? any live-lock cycles? unmonitored exposure?
* probabilistic forecasting — expected rollout time and rollback
  probability under different per-phase success assumptions, computed by
  solving the automaton as an absorbing Markov chain.

Run it:

    python examples/strategy_analysis.py
"""

from repro.core import (
    StrategyBuilder,
    ab_split,
    canary_split,
    forecast_rollout,
    optimistic_probabilities,
    simple_basic_check,
    single_version,
)
from repro.dashboard import render_mermaid
from repro.lint import lint_strategy

DAY = 86400.0


def build_fig2_strategy():
    """The running example at paper-faithful durations (days!)."""
    builder = StrategyBuilder("fastsearch-rollout")
    builder.service(
        "search", {"search": "10.0.0.1:80", "fastSearch": "10.0.0.2:80"}
    )

    def health_check(name):
        # Response time below 150 ms, checked every 10 minutes for a day.
        return simple_basic_check(
            name,
            'response_time_ms{instance="fastSearch"}',
            "<150",
            interval=600.0,
            repetitions=144,
            threshold=130,
        )

    builder.state("a").route("search", canary_split("search", "fastSearch", 1.0)).check(
        health_check("health-a")
    ).transitions([0.5], ["g", "b"])
    builder.state("b").route("search", canary_split("search", "fastSearch", 5.0)).check(
        health_check("health-b")
    ).transitions([0.5], ["g", "c"])
    builder.state("c").route("search", canary_split("search", "fastSearch", 10.0)).check(
        health_check("health-c")
    ).transitions([0.5], ["g", "d"])
    builder.state("d").route("search", canary_split("search", "fastSearch", 20.0)).check(
        health_check("health-d")
    ).transitions([0.5], ["g", "e"])
    builder.state("e").route("search", ab_split("search", "fastSearch")).check(
        simple_basic_check(
            "conversion",
            'conversion_rate{instance="fastSearch"}',
            ">=0.031",
            interval=5 * DAY,
            repetitions=1,
        )
    ).transitions([0.5], ["g", "f"])
    builder.state("f").route("search", single_version("fastSearch")).final()
    builder.state("g").route("search", single_version("search")).final(rollback=True)
    return builder.build()


def main() -> None:
    strategy = build_fig2_strategy()

    print("=== automaton (paste into a Mermaid renderer) ===")
    print(render_mermaid(strategy.automaton))

    print("\n=== static verification ===")
    diagnostics = lint_strategy(strategy).diagnostics
    if not diagnostics:
        print("no findings — every risky state can reach the rollback state")
    for diagnostic in diagnostics:
        print(f"  {diagnostic}")

    print("\n=== probabilistic forecast ===")
    for success in (0.99, 0.95, 0.80):
        probabilities = optimistic_probabilities(strategy.automaton, success=success)
        forecast = forecast_rollout(strategy, probabilities)
        print(
            f"  per-phase success {success:.0%}: expected rollout "
            f"{forecast.expected_duration / DAY:.2f} days, rollback risk "
            f"{forecast.rollback_probability:.1%}"
        )
    print(
        "\n(The nominal happy path is 1+1+1+1+5 = 9 days; lower per-phase\n"
        " success shortens the *expected* time because failed rollouts\n"
        " abort early — but the rollback risk explodes.)"
    )


if __name__ == "__main__":
    main()
