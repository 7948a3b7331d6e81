"""Tests for the bifrost CLI."""

import asyncio
import threading

import pytest

from repro.cli import build_parser, main

VALID_DOC = """
strategy:
  name: cli-demo
  phases:
    - phase:
        name: wait
        duration: 0.02
        routes:
          - route:
              from: svc
              to: v2
              filters:
                - traffic:
                    percentage: 50
        next: done
    - final:
        name: done
deployment:
  services:
    svc:
      proxy: {proxy}
      stable: v1
      versions:
        v1: 127.0.0.1:9001
        v2: 127.0.0.1:9002
"""


@pytest.fixture
def valid_file(tmp_path):
    path = tmp_path / "strategy.yaml"
    path.write_text(VALID_DOC.format(proxy="127.0.0.1:7001"))
    return path


@pytest.fixture
def invalid_file(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("strategy:\n  name: broken\n")
    return path


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_validate_ok(valid_file, capsys):
    assert main(["validate", str(valid_file)]) == 0
    out = capsys.readouterr().out
    assert "OK: strategy 'cli-demo'" in out
    assert "states: 2" in out


def test_validate_invalid(invalid_file, capsys):
    """Machine-relevant verdicts (INVALID included) go to stdout."""
    captured_before = main(["validate", str(invalid_file)])
    streams = capsys.readouterr()
    assert captured_before == 1
    assert "INVALID" in streams.out
    assert streams.err == ""


def test_validate_prints_every_compile_error_with_line_and_code(tmp_path, capsys):
    document = VALID_DOC.format(proxy="127.0.0.1:7001")
    document = document.replace("to: v2", "to: v9").replace(
        "duration: 0.02", "duration: soon"
    )
    path = tmp_path / "two-errors.yaml"
    path.write_text(document)
    assert main(["validate", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    duration_line = next(
        number
        for number, text in enumerate(document.splitlines(), start=1)
        if "duration: soon" in text
    )
    # The first error is unchanged; each further one names its line and code.
    assert lines[0].startswith("INVALID: strategy.phases[0].phase.routes[0]")
    assert "no version 'v9'" in lines[0]
    assert lines[1:] == [
        f"  line {duration_line}: BF002 "
        "strategy.phases[0].phase.duration: expected a number, got 'soon'"
    ]


def test_validate_missing_file(tmp_path):
    with pytest.raises(SystemExit):
        main(["validate", str(tmp_path / "ghost.yaml")])


def test_validate_with_verify_and_forecast(valid_file, capsys):
    assert main(["validate", str(valid_file), "--verify", "--forecast", "0.9"]) == 0
    out = capsys.readouterr().out
    assert "forecast" in out
    assert "expected rollout time" in out


def test_validate_verify_flags_errors(tmp_path, capsys):
    """A checked strategy without any rollback state exits 3."""
    document = """
strategy:
  name: risky
  phases:
    - phase:
        name: canary
        routes:
          - route:
              from: svc
              to: v2
              filters:
                - traffic:
                    percentage: 10
        checks:
          - metric:
              name: m
              query: q
              intervalTime: 1
              intervalLimit: 2
              validator: "<5"
        next: done
        onFailure: done
    - final:
        name: done
deployment:
  services:
    svc:
      proxy: 127.0.0.1:7001
      stable: v1
      versions:
        v1: 127.0.0.1:9001
        v2: 127.0.0.1:9002
"""
    path = tmp_path / "risky.yaml"
    path.write_text(document)
    assert main(["validate", str(path), "--verify"]) == 3
    assert "no-rollback" in capsys.readouterr().out


def test_lint_clean_file_exits_zero(valid_file, capsys):
    # VALID_DOC routes 50% unchecked, so ignore the advisory exposure
    # warning to get a clean strict run.
    assert (
        main(["lint", str(valid_file), "--strict", "--ignore", "BF305,BF203"])
        == 0
    )
    assert "no findings" in capsys.readouterr().out


def test_lint_warnings_exit_four_only_with_strict(valid_file, capsys):
    assert main(["lint", str(valid_file)]) == 0
    assert main(["lint", str(valid_file), "--strict"]) == 4
    out = capsys.readouterr().out
    assert "BF305" in out  # unmonitored exposure of v2


def test_lint_errors_exit_three_and_json_reports_lines(tmp_path, capsys):
    import json

    path = tmp_path / "broken.yaml"
    path.write_text(
        VALID_DOC.format(proxy="127.0.0.1:7001").replace(
            "next: done", "next: ghost"
        )
    )
    assert main(["lint", str(path), "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    codes = {d["code"] for d in payload["diagnostics"]}
    assert "BF107" in codes  # unknown state 'ghost'
    assert all(
        d["line"] is not None
        for d in payload["diagnostics"]
        if d["code"] == "BF107"
    )


def test_lint_multiple_files_aggregates(tmp_path, valid_file, capsys):
    import json

    bad = tmp_path / "bad.yaml"
    bad.write_text("a:\n\tb: 1\n")
    assert (
        main(["lint", str(valid_file), str(bad), "--format", "json"]) == 3
    )
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["files"]) == 2
    assert payload["summary"]["error"] >= 1


def test_lint_sarif_output(valid_file, capsys):
    import json

    assert main(["lint", str(valid_file), "--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    assert log["runs"][0]["tool"]["driver"]["name"] == "bifrost-lint"


def test_render_text(valid_file, capsys):
    assert main(["render", str(valid_file)]) == 0
    out = capsys.readouterr().out
    assert "strategy cli-demo" in out
    assert "state wait" in out


def test_render_mermaid(valid_file, capsys):
    assert main(["render", str(valid_file), "--mermaid"]) == 0
    assert "stateDiagram-v2" in capsys.readouterr().out


def test_run_local_enacts_strategy(tmp_path, capsys):
    """`bifrost run` configures a real proxy and completes the strategy."""
    from repro.proxy import BifrostProxy

    holder = {}
    ready = threading.Event()
    release = threading.Event()

    def proxy_thread():
        async def body():
            proxy = BifrostProxy("svc", default_upstream="127.0.0.1:9001")
            await proxy.start()
            holder["address"] = proxy.address
            holder["proxy"] = proxy
            ready.set()
            while not release.is_set():
                await asyncio.sleep(0.01)
            holder["configured"] = proxy.active_config is not None
            await proxy.stop()

        asyncio.run(body())

    thread = threading.Thread(target=proxy_thread)
    thread.start()
    assert ready.wait(5)
    path = tmp_path / "strategy.yaml"
    path.write_text(VALID_DOC.format(proxy=holder["address"]))
    try:
        code = main(["run", str(path)])
    finally:
        release.set()
        thread.join(5)
    assert code == 0
    out = capsys.readouterr().out
    assert "cli-demo: completed" in out
    assert "wait -> done" in out
    assert "strategy_started" in out  # event stream printed
    assert holder["configured"]


def test_run_quiet_suppresses_events(tmp_path, capsys):
    from repro.proxy import BifrostProxy

    holder = {}
    ready = threading.Event()
    release = threading.Event()

    def proxy_thread():
        async def body():
            proxy = BifrostProxy("svc", default_upstream="127.0.0.1:9001")
            await proxy.start()
            holder["address"] = proxy.address
            ready.set()
            while not release.is_set():
                await asyncio.sleep(0.01)
            await proxy.stop()

        asyncio.run(body())

    thread = threading.Thread(target=proxy_thread)
    thread.start()
    assert ready.wait(5)
    path = tmp_path / "strategy.yaml"
    path.write_text(VALID_DOC.format(proxy=holder["address"]))
    try:
        code = main(["run", str(path), "--quiet"])
    finally:
        release.set()
        thread.join(5)
    assert code == 0
    out = capsys.readouterr().out
    assert "strategy_started" not in out


def test_status_events_cancel_against_running_engine(tmp_path, capsys):
    """Drive the remote-control commands against a live engine API."""
    from repro.core import Engine
    from repro.dashboard import EngineApiServer
    from repro.proxy import BifrostProxy, HttpProxyController

    holder = {}
    ready = threading.Event()
    release = threading.Event()

    def engine_thread():
        async def body():
            proxy = BifrostProxy("svc", default_upstream="127.0.0.1:9001")
            await proxy.start()
            controller = HttpProxyController({})
            engine = Engine(controller=controller)
            api = EngineApiServer(engine)
            await api.start()
            holder["api"] = api.address
            holder["proxy"] = proxy.address
            ready.set()
            while not release.is_set():
                await asyncio.sleep(0.01)
            await api.stop()
            await engine.shutdown()
            await controller.close()
            await proxy.stop()

        asyncio.run(body())

    thread = threading.Thread(target=engine_thread)
    thread.start()
    assert ready.wait(5)
    try:
        # Submit a long-running strategy via raw HTTP (what CI scripts do).
        import json
        import urllib.request

        document = VALID_DOC.format(proxy=holder["proxy"]).replace(
            "duration: 0.02", "duration: 60"
        )
        request = urllib.request.Request(
            f"http://{holder['api']}/api/strategies",
            data=document.encode(),
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            execution_id = json.loads(response.read())["execution"]

        assert main(["status", "--engine", holder["api"]]) == 0
        out = capsys.readouterr().out
        assert "cli-demo" in out
        assert "running" in out

        assert main(["events", "--engine", holder["api"]]) == 0
        out = capsys.readouterr().out
        assert "strategy_started" in out

        assert main(["cancel", "--engine", holder["api"], execution_id]) == 0
        assert "cancelled" in capsys.readouterr().out

        assert main(["cancel", "--engine", holder["api"], "ghost#9"]) == 1
    finally:
        release.set()
        thread.join(5)


async def test_proxy_command_serves_the_admin_api(capsys):
    """`bifrost proxy` starts one proxy whose admin API round-trips."""
    from repro.cli.main import _proxy
    from repro.core import single_version
    from repro.httpcore import HttpClient

    args = build_parser().parse_args(["proxy", "svc", "127.0.0.1:1", "--port", "0"])
    task = asyncio.create_task(_proxy(args))
    out = ""
    for _ in range(200):
        out += capsys.readouterr().out
        if "http://" in out:
            break
        await asyncio.sleep(0.01)
    address = out.split("http://", 1)[1].split()[0]
    url = f"http://{address}/bifrost/config"
    try:
        async with HttpClient() as client:
            put = await client.put(
                url,
                json_body={
                    "routing": single_version("v1").to_wire(),
                    "endpoints": {"v1": "127.0.0.1:1"},
                },
            )
            got = await client.get(url)
    finally:
        task.cancel()
        assert await task == 0
    assert put.status == 200
    assert put.json()["config_version"] == 1
    body = got.json()
    assert body["active"] is True
    assert body["config_version"] == 1
    assert body["routing"] == single_version("v1").to_wire()


def test_proxy_command_has_no_workers_option(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["proxy", "svc", "127.0.0.1:1", "--workers", "2"])
    assert exit_info.value.code == 2
    assert "--workers" in capsys.readouterr().err
