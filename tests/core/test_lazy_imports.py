"""The engine, the proxy and the CLI import without numpy and networkx.

Both are ``dev`` extras (pyproject.toml declares no runtime dependency):
only :func:`strategy_graph` and :func:`forecast_rollout` need them, and
they import them when called.  A fresh interpreter is the only place
``sys.modules`` can show that.
"""

import subprocess
import sys
import textwrap


def run_fresh(script: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_engine_loads_neither_numpy_nor_networkx():
    loaded = run_fresh("""
        import sys
        import repro.core, repro.proxy, repro.metrics, repro.cli.main
        print([name for name in ("numpy", "networkx") if name in sys.modules])
    """)
    assert loaded == "[]"


def test_the_two_analysis_helpers_import_what_they_need_when_called():
    loaded = run_fresh("""
        import sys
        from repro.core import StrategyBuilder, forecast_rollout, strategy_graph
        from repro.core.routing import single_version

        builder = StrategyBuilder("rollout")
        builder.service("shop", {"stable": "shop:80"})
        builder.state("canary").route("shop", single_version("stable")).dwell(
            60.0).transitions([], ["done"])
        builder.state("done").route("shop", single_version("stable")).final()
        strategy = builder.build()
        graph = strategy_graph(strategy.automaton)
        forecast = forecast_rollout(strategy)
        print(sorted(graph.nodes), forecast.expected_duration,
              "numpy" in sys.modules, "networkx" in sys.modules)
    """)
    assert loaded == "['canary', 'done'] 60.0 True True"
