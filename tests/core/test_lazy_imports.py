"""The engine, the proxy and the CLI import without numpy.

numpy is a ``dev`` extra (pyproject.toml declares no runtime dependency):
only :func:`forecast_rollout` needs it, and it imports numpy when called.
A fresh interpreter is the only place ``sys.modules`` can show that.
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


def test_importing_the_engine_does_not_load_numpy():
    loaded = run_fresh("""
        import sys
        import repro.core, repro.proxy, repro.metrics, repro.cli.main
        print("numpy" in sys.modules)
    """)
    assert loaded == "False"


def test_forecast_rollout_imports_numpy_when_called():
    loaded = run_fresh("""
        import sys
        from repro.core import StrategyBuilder, forecast_rollout
        from repro.core.routing import single_version

        builder = StrategyBuilder("rollout")
        builder.service("shop", {"stable": "shop:80"})
        builder.state("canary").route("shop", single_version("stable")).dwell(
            60.0).transitions([], ["done"])
        builder.state("done").route("shop", single_version("stable")).final()
        forecast = forecast_rollout(builder.build())
        print(forecast.expected_duration, "numpy" in sys.modules)
    """)
    assert loaded == "60.0 True"
