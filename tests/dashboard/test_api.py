"""Tests for the engine HTTP API."""

import asyncio
from pathlib import Path

import pytest

from repro.core import Engine, ExecutionStatus, RecordingController
from repro.core.events import Event, EventKind
from repro.dashboard import EngineApiServer
from repro.httpcore import HttpClient
from repro.proxy import BifrostProxy, HttpProxyController

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

DOC = """
strategy:
  name: api-test
  phases:
    - phase:
        name: wait
        duration: 0.05
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


async def api_setup():
    proxy = BifrostProxy("svc", default_upstream="127.0.0.1:9001")
    await proxy.start()
    controller = HttpProxyController({})
    engine = Engine(controller=controller)
    api = EngineApiServer(engine)
    await api.start()
    client = HttpClient()
    return proxy, engine, api, client


async def api_teardown(proxy, engine, api, client):
    await client.close()
    await api.stop()
    await engine.shutdown()
    if isinstance(engine.controller, HttpProxyController):
        await engine.controller.close()
    await proxy.stop()


async def test_submit_and_track_execution():
    proxy, engine, api, client = await api_setup()
    try:
        document = DOC.format(proxy=proxy.address)
        response = await client.post(
            f"http://{api.address}/api/strategies", body=document.encode()
        )
        assert response.status == 201
        execution_id = response.json()["execution"]

        response = await client.get(f"http://{api.address}/api/executions")
        listing = response.json()["executions"]
        assert len(listing) == 1
        assert listing[0]["execution"] == execution_id

        await asyncio.sleep(0.3)
        response = await client.get(
            f"http://{api.address}/api/executions/{execution_id.replace('#', '%23')}"
        )
        detail = response.json()
        assert detail["status"] == "completed"
        assert detail["path"] == ["wait", "done"]
        # The proxy really was configured over HTTP.
        assert proxy.active_config is not None
    finally:
        await api_teardown(proxy, engine, api, client)


async def test_submit_invalid_document_is_400():
    proxy, engine, api, client = await api_setup()
    try:
        response = await client.post(
            f"http://{api.address}/api/strategies", body=b"not: a strategy"
        )
        assert response.status == 400
        assert "error" in response.json()
    finally:
        await api_teardown(proxy, engine, api, client)


async def test_unknown_execution_404():
    proxy, engine, api, client = await api_setup()
    try:
        response = await client.get(f"http://{api.address}/api/executions/nope%231")
        assert response.status == 404
        response = await client.delete(f"http://{api.address}/api/executions/nope%231")
        assert response.status == 404
    finally:
        await api_teardown(proxy, engine, api, client)


async def test_cancel_running_execution():
    proxy, engine, api, client = await api_setup()
    try:
        document = DOC.format(proxy=proxy.address).replace(
            "duration: 0.05", "duration: 60"
        )
        response = await client.post(
            f"http://{api.address}/api/strategies", body=document.encode()
        )
        execution_id = response.json()["execution"]
        response = await client.delete(
            f"http://{api.address}/api/executions/{execution_id.replace('#', '%23')}"
        )
        assert response.status == 200
        response = await client.get(f"http://{api.address}/api/executions")
        assert response.json()["executions"][0]["status"] == "failed"
    finally:
        await api_teardown(proxy, engine, api, client)


async def test_pause_and_resume_over_the_api():
    proxy, engine, api, client = await api_setup()
    try:
        document = DOC.format(proxy=proxy.address).replace(
            "duration: 0.05", "duration: 0.2"
        )
        response = await client.post(
            f"http://{api.address}/api/strategies", body=document.encode()
        )
        execution_id = response.json()["execution"]
        encoded = execution_id.replace("#", "%23")
        response = await client.post(
            f"http://{api.address}/api/executions/{encoded}/pause"
        )
        assert response.json()["status"] == "pausing"
        await asyncio.sleep(0.4)  # state "wait" finishes, then holds
        response = await client.get(f"http://{api.address}/api/executions")
        assert response.json()["executions"][0]["status"] == "paused"
        response = await client.post(
            f"http://{api.address}/api/executions/{encoded}/resume"
        )
        assert response.json()["status"] == "resumed"
        await asyncio.sleep(0.3)
        response = await client.get(f"http://{api.address}/api/executions")
        assert response.json()["executions"][0]["status"] == "completed"
        # Unknown execution -> 404.
        response = await client.post(
            f"http://{api.address}/api/executions/nope%231/pause"
        )
        assert response.status == 404
    finally:
        await api_teardown(proxy, engine, api, client)


async def test_pausing_an_ended_execution_is_409_and_changes_nothing():
    proxy, engine, api, client = await api_setup()
    try:
        response = await client.post(
            f"http://{api.address}/api/strategies",
            body=DOC.format(proxy=proxy.address).encode(),
        )
        execution_id = response.json()["execution"]
        await engine.wait(execution_id)
        execution = engine.execution(execution_id)
        assert execution.status is ExecutionStatus.COMPLETED
        encoded = execution_id.replace("#", "%23")
        for action in ("pause", "resume", "pause"):
            response = await client.post(
                f"http://{api.address}/api/executions/{encoded}/{action}"
            )
            assert response.status == 409, response.body
            assert "completed" in response.json()["error"]
        assert execution.status is ExecutionStatus.COMPLETED
        assert not execution.paused
    finally:
        await api_teardown(proxy, engine, api, client)


async def test_events_endpoint_pagination():
    proxy, engine, api, client = await api_setup()
    try:
        document = DOC.format(proxy=proxy.address)
        await client.post(
            f"http://{api.address}/api/strategies", body=document.encode()
        )
        await asyncio.sleep(0.3)
        response = await client.get(f"http://{api.address}/api/events")
        payload = response.json()
        assert payload["events"][0]["kind"] == "strategy_started"
        assert payload["events"][-1]["kind"] == "strategy_completed"
        cursor = payload["next"]
        response = await client.get(f"http://{api.address}/api/events?since={cursor}")
        assert response.json()["events"] == []
        response = await client.get(f"http://{api.address}/api/events?since=abc")
        assert response.status == 400
    finally:
        await api_teardown(proxy, engine, api, client)


async def test_health():
    proxy, engine, api, client = await api_setup()
    try:
        response = await client.get(f"http://{api.address}/healthz")
        assert response.json()["status"] == "up"
    finally:
        await api_teardown(proxy, engine, api, client)


def _lint_rejected_document() -> bytes:
    """An example that compiles but fails the lint gate with BF601."""
    text = (EXAMPLES / "resilient_canary.yaml").read_text(encoding="utf-8")
    rejected = text.replace(
        'request_duration_p95{instance="search:80"}', "errors_ratio"
    ).replace('validator: "<250"', 'validator: ">2"')
    assert rejected != text
    return rejected.encode()


def _edited_example(name: str, old: str, new: str) -> bytes:
    """An example with one value changed so that it no longer compiles."""
    text = (EXAMPLES / name).read_text(encoding="utf-8")
    assert text.count(old) == 1
    return text.replace(old, new).encode()


LINT_REJECTED = _lint_rejected_document()
UNKNOWN = "/api/executions/nope%231"
BAD_REQUESTS = [
    ("lint-rejected", "POST", "/api/strategies", LINT_REJECTED, 400),
    (
        "negative-live-percentage",
        "POST",
        "/api/strategies",
        _edited_example(
            "resilient_canary.yaml", "percentage: 10\n", "percentage: -10\n"
        ),
        400,
    ),
    (
        "shadow-percentage-over-100",
        "POST",
        "/api/strategies",
        _edited_example("shadow_backpressure.yaml", "percentage: 50", "percentage: 150"),
        400,
    ),
    (
        "duplicate-phase-name",
        "POST",
        "/api/strategies",
        _edited_example("chaos_canary.yaml", "name: done", "name: canary"),
        400,
    ),
    ("dsl-error", "POST", "/api/strategies", b"not: a strategy", 400),
    ("empty-body", "POST", "/api/strategies", b"", 400),
    ("yaml-list", "POST", "/api/strategies", b"- a\n- b\n", 400),
    (
        "yaml-nested-past-the-parser",
        "POST",
        "/api/strategies",
        "\n".join(" " * i + "a:" for i in range(400)).encode(),
        400,
    ),
    ("negative-since", "GET", "/api/events?since=-3", b"", 400),
    ("non-integer-since", "GET", "/api/events?since=abc", b"", 400),
    ("get-unknown", "GET", UNKNOWN, b"", 404),
    ("delete-unknown", "DELETE", UNKNOWN, b"", 404),
    ("pause-unknown", "POST", UNKNOWN + "/pause", b"", 404),
    ("resume-unknown", "POST", UNKNOWN + "/resume", b"", 404),
]


@pytest.mark.parametrize(
    "method,path,body,status",
    [row[1:] for row in BAD_REQUESTS],
    ids=[row[0] for row in BAD_REQUESTS],
)
async def test_bad_input_is_4xx_and_leaves_the_engine_untouched(
    method, path, body, status
):
    engine = Engine(controller=RecordingController())
    for _ in range(3):
        await engine.bus.publish(Event(EventKind.CIRCUIT_OPENED, "provider:x", 0.0))
    api = EngineApiServer(engine)
    await api.start()
    try:
        async with HttpClient() as client:
            response = await client.request(
                method, f"http://{api.address}{path}", body=body
            )
    finally:
        await api.stop()
        await engine.shutdown()
    assert response.status == status, response.body
    assert len(engine.executions) == 0
    assert len(engine.bus.history) == 3
    if path == "/api/strategies":
        payload = response.json()
        assert payload["status"] == "error"
        if body == LINT_REJECTED:
            assert "BF601" in payload["error"]
