"""The engine's HTTP API.

The Bifrost CLI "connects to the Bifrost engine and allows scheduling and
executing release strategies remotely or as part of release scripts"
(section 4.1).  This server is that connection point:

* ``POST /api/strategies`` — submit a DSL document (text body); compiles
  it, registers the deployment's proxies, and starts enactment.
* ``GET /api/executions`` — all executions with status and current state.
* ``GET /api/executions/{id}`` — one execution in detail.
* ``DELETE /api/executions/{id}`` — cancel an execution.
* ``POST /api/executions/{id}/pause`` and ``.../resume`` — hold or release
  an execution before its next phase; 409 once it has ended.
* ``GET /api/events?since=N`` — events after history index N (the
  dashboard's polling feed, standing in for Socket.IO pushes).
"""

from __future__ import annotations

from urllib.parse import unquote

from ..core.engine import Engine, ExecutionEndedError, StrategyRejectedError
from ..dsl import DslError, compile_document
from ..dsl.yaml_lite import YamlError
from ..httpcore import HttpServer, Request, Response
from ..proxy.admin import HttpProxyController


class EngineApiServer(HttpServer):
    """HTTP facade over an :class:`~repro.core.engine.Engine`."""

    def __init__(
        self,
        engine: Engine,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        super().__init__(host=host, port=port, name="bifrost-engine")
        self.engine = engine
        self.router.post("/api/strategies")(self._handle_submit)
        self.router.get("/api/executions")(self._handle_list)
        self.router.get("/api/executions/{id}")(self._handle_detail)
        self.router.delete("/api/executions/{id}")(self._handle_cancel)
        self.router.post("/api/executions/{id}/pause")(self._handle_pause)
        self.router.post("/api/executions/{id}/resume")(self._handle_resume)
        self.router.get("/api/events")(self._handle_events)
        self.router.get("/healthz")(self._handle_health)

    async def _handle_submit(self, request: Request) -> Response:
        text = request.body.decode("utf-8", errors="replace")
        try:
            compiled = compile_document(text)
        except (DslError, YamlError) as exc:
            return Response.from_json({"status": "error", "error": str(exc)}, 400)
        try:
            execution_id = self.engine.enact(compiled.strategy)
        except StrategyRejectedError as exc:
            return Response.from_json({"status": "error", "error": str(exc)}, 400)
        # No await since enact: the proxies are registered before the
        # execution's first step, and a rejected document registers none.
        controller = self.engine.controller
        if isinstance(controller, HttpProxyController):
            for service, proxy_address in compiled.deployment.proxies().items():
                controller.register(service, proxy_address)
        return Response.from_json(
            {"status": "ok", "execution": execution_id, "strategy": compiled.name},
            status=201,
        )

    async def _handle_list(self, request: Request) -> Response:
        executions = []
        for execution_id, execution in self.engine.executions.items():
            executions.append(
                {
                    "execution": execution_id,
                    "strategy": execution.strategy.name,
                    "status": execution.status.value,
                    "current_state": execution.current_state,
                    "visits": len(execution.visits),
                }
            )
        return Response.from_json({"executions": executions})

    async def _handle_detail(self, request: Request) -> Response:
        execution_id = unquote(request.path_params["id"])
        try:
            execution = self.engine.execution(execution_id)
        except KeyError:
            return Response.from_json({"error": "no such execution"}, 404)
        return Response.from_json(
            {
                "execution": execution_id,
                "strategy": execution.strategy.name,
                "status": execution.status.value,
                "current_state": execution.current_state,
                "path": [visit.state for visit in execution.visits],
                "visits": [
                    {
                        "state": visit.state,
                        "entered_at": visit.entered_at,
                        "left_at": visit.left_at,
                        "outcome": visit.outcome,
                        "next": visit.next_state,
                        "via_exception": visit.via_exception,
                    }
                    for visit in execution.visits
                ],
            }
        )

    async def _handle_cancel(self, request: Request) -> Response:
        execution_id = unquote(request.path_params["id"])
        try:
            self.engine.execution(execution_id)
        except KeyError:
            return Response.from_json({"error": "no such execution"}, 404)
        await self.engine.cancel(execution_id)
        return Response.from_json({"status": "cancelled", "execution": execution_id})

    async def _handle_pause(self, request: Request) -> Response:
        return self._hold(request, self.engine.pause, "pausing")

    async def _handle_resume(self, request: Request) -> Response:
        return self._hold(request, self.engine.resume, "resumed")

    def _hold(self, request: Request, action, status: str) -> Response:
        """Pause or resume; an execution that has ended is a 409, untouched."""
        execution_id = unquote(request.path_params["id"])
        try:
            action(execution_id)
        except KeyError:
            return Response.from_json({"error": "no such execution"}, 404)
        except ExecutionEndedError as exc:
            return Response.from_json({"error": str(exc)}, 409)
        return Response.from_json({"status": status, "execution": execution_id})

    async def _handle_events(self, request: Request) -> Response:
        try:
            since = int(request.query.get("since", "0"))
        except ValueError:
            return Response.from_json({"error": "since must be an integer"}, 400)
        if since < 0:
            return Response.from_json({"error": "since must not be negative"}, 400)
        history = self.engine.bus.history
        events = [
            {
                "index": index,
                "kind": event.kind.value,
                "strategy": event.strategy,
                "at": event.at,
                "data": event.data,
            }
            for index, event in enumerate(history[since:], start=since)
        ]
        return Response.from_json({"events": events, "next": len(history)})

    async def _handle_health(self, request: Request) -> Response:
        return Response.from_json(
            {"status": "up", "executions": len(self.engine.executions)}
        )
