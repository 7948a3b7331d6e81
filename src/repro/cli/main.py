"""The Bifrost command-line interface.

Subcommands:

* ``bifrost validate <file>`` — compile a strategy document and report
  its structure (exit 1 on errors).
* ``bifrost lint <files...>`` — static analysis: run the full rule
  catalogue (``docs/lint.md``) and render diagnostics as text, JSON,
  SARIF, or GitHub workflow commands.  ``--fix`` applies the autofixers
  in place first; ``--baseline``/``--update-baseline`` ratchet a legacy
  corpus.  Exit 0 when clean, 3 on errors, 4 on warnings with
  ``--strict``.
* ``bifrost explain BFxxx`` — print a rule's catalogue entry from
  ``docs/lint.md``.
* ``bifrost render <file>`` — print the automaton (``--mermaid`` emits a
  Mermaid state diagram like the paper's Figure 2).
* ``bifrost run <file>`` — enact a strategy locally: configures proxies
  from the document's deployment section over HTTP and runs the engine
  in-process until the strategy finishes.
* ``bifrost serve`` — start an engine with its HTTP API (and optional
  dashboard) for remote scheduling.
* ``bifrost proxy`` — run one standalone proxy in front of a service
  (one proxy per service, paper section 4.1).
* ``bifrost status`` / ``bifrost events`` / ``bifrost cancel`` — talk to
  a remote engine API (``--engine host:port``), as release scripts do.
* ``bifrost chaos run <file>`` — enact the document's ``chaos:``
  campaign alongside its strategy as an automated game day.
  ``--rehearse`` runs it in-process under a virtual clock against a
  seeded local metric store (no proxies or Prometheus needed) so a
  campaign can be exercised before touching real infrastructure.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from pathlib import Path

from ..core.engine import Engine, ExecutionStatus
from ..dashboard import (
    DashboardServer,
    EngineApiServer,
    render_event,
    render_executions,
    render_mermaid,
    render_strategy,
)
from ..dsl import DslError, compile_document
from ..dsl.yaml_lite import YamlError
from ..httpcore import HttpClient
from ..metrics.provider import HttpPrometheusProvider
from ..proxy.admin import HttpProxyController


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifrost",
        description="Automated enactment of multi-phase live testing strategies",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="check a strategy document")
    validate.add_argument("file", type=Path)
    validate.add_argument(
        "--verify",
        action="store_true",
        help="also run static verification rules (rollback reachability, ...)",
    )
    validate.add_argument(
        "--forecast",
        type=float,
        metavar="P",
        help="forecast expected rollout time assuming per-state success "
        "probability P (e.g. 0.9)",
    )

    lint = commands.add_parser("lint", help="static analysis of strategy documents")
    lint.add_argument("files", type=Path, nargs="+")
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif", "github"),
        default="text",
        help="diagnostic output format (default: text)",
    )
    lint.add_argument(
        "--fix",
        action="store_true",
        help="apply the autofixers to each file in place, then lint the "
        "fixed text",
    )
    lint.add_argument(
        "--baseline",
        type=Path,
        metavar="FILE",
        help="suppress findings recorded in this baseline file",
    )
    lint.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current findings to --baseline and exit 0",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit 4 when warnings remain (errors always exit 3)",
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="CODES",
        help="only run these rule codes (comma-separated; prefixes like "
        "BF3 select a whole group)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        metavar="CODES",
        help="never report these rule codes (comma-separated, prefixes allowed)",
    )

    explain = commands.add_parser(
        "explain", help="print a lint rule's catalogue entry"
    )
    explain.add_argument("code", metavar="BFxxx", help="rule code to explain")

    render = commands.add_parser("render", help="print a strategy's automaton")
    render.add_argument("file", type=Path)
    render.add_argument(
        "--mermaid", action="store_true", help="emit a Mermaid state diagram"
    )

    run = commands.add_parser("run", help="enact a strategy locally")
    run.add_argument("file", type=Path)
    run.add_argument(
        "--prometheus",
        metavar="URL",
        help="metrics provider base URL (e.g. http://127.0.0.1:9090)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress the event stream"
    )

    serve = commands.add_parser("serve", help="start the engine API server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7878)
    serve.add_argument(
        "--dashboard-port", type=int, default=None, help="also serve the dashboard"
    )
    serve.add_argument("--prometheus", metavar="URL")

    proxy = commands.add_parser("proxy", help="run the proxy for one service")
    proxy.add_argument("service", help="service name (used in proxy identity)")
    proxy.add_argument(
        "default_upstream", metavar="UPSTREAM", help="host:port passthrough target"
    )
    proxy.add_argument("--host", default="127.0.0.1")
    proxy.add_argument("--port", type=int, default=8080)
    proxy.add_argument("--seed", default="bifrost", help="traffic-split hash seed")

    chaos = commands.add_parser("chaos", help="chaos campaigns (game days)")
    chaos_actions = chaos.add_subparsers(dest="chaos_command", required=True)
    chaos_run = chaos_actions.add_parser(
        "run", help="enact a document's chaos campaign as a game day"
    )
    chaos_run.add_argument("file", type=Path)
    chaos_run.add_argument(
        "--rehearse",
        action="store_true",
        help="run in-process under a virtual clock with a seeded local "
        "metric store instead of real proxies/Prometheus",
    )
    chaos_run.add_argument(
        "--prometheus",
        metavar="URL",
        help="metrics provider base URL (live mode only)",
    )
    chaos_run.add_argument(
        "--metric",
        action="append",
        metavar="NAME=VALUE",
        help="rehearsal fixture: constant series value for a query "
        "(default 0.0 for every referenced query)",
    )
    chaos_run.add_argument(
        "--seed", type=int, default=None, help="override the campaign seed"
    )
    chaos_run.add_argument(
        "--allow-findings",
        action="store_true",
        help="enact even when blocking lint findings exist",
    )
    chaos_run.add_argument(
        "--quiet", action="store_true", help="suppress the event stream"
    )

    status = commands.add_parser("status", help="list executions on an engine")
    status.add_argument("--engine", required=True, metavar="HOST:PORT")

    events = commands.add_parser("events", help="print an engine's event log")
    events.add_argument("--engine", required=True, metavar="HOST:PORT")
    events.add_argument("--since", type=int, default=0)

    cancel = commands.add_parser("cancel", help="cancel a running execution")
    cancel.add_argument("--engine", required=True, metavar="HOST:PORT")
    cancel.add_argument("execution")

    pause = commands.add_parser(
        "pause", help="hold an execution before its next phase"
    )
    pause.add_argument("--engine", required=True, metavar="HOST:PORT")
    pause.add_argument("execution")

    resume = commands.add_parser("resume", help="release a paused execution")
    resume.add_argument("--engine", required=True, metavar="HOST:PORT")
    resume.add_argument("execution")

    return parser


def _load_document(path: Path):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    return compile_document(text)


def cmd_validate(args) -> int:
    """Validate a document.

    Output convention: every machine-relevant verdict — ``OK``,
    ``INVALID``, and verification findings — goes to stdout, so scripts
    can parse one stream; stderr is reserved for operational failures
    (unreadable file, ...).
    """
    from ..dsl.yaml_lite import loads

    try:
        text = args.file.read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read {args.file}: {exc}")
    try:
        document = loads(text)
        compiled = compile_document(document)
    except (DslError, YamlError) as exc:
        print(f"INVALID: {exc}")
        for error in getattr(exc, "errors", [exc])[1:]:
            print(f"  line {error.line}: {error.code} {error.path}: {error.message}")
        return 1
    automaton = compiled.strategy.automaton
    states = len(automaton.states)
    finals = len(automaton.final_states)
    checks = sum(len(state.checks) for state in automaton.states.values())
    print(f"OK: strategy {compiled.name!r}")
    print(f"  states: {states} ({finals} final), checks: {checks}")
    print(f"  services: {', '.join(sorted(compiled.strategy.services))}")
    exit_code = 0
    if args.verify:
        from ..lint import lint_document

        result = lint_document(document, file=str(args.file))
        if not result.diagnostics:
            print("verification: no findings")
        for diagnostic in result.diagnostics:
            print(f"  {diagnostic}")
        if result.errors:
            exit_code = 3
    if args.forecast is not None:
        from ..core.reasoning import forecast_rollout, optimistic_probabilities

        probabilities = optimistic_probabilities(automaton, success=args.forecast)
        forecast = forecast_rollout(compiled.strategy, probabilities)
        print(
            f"forecast (success probability {args.forecast:g}): expected "
            f"rollout time {forecast.expected_duration:.1f}s, rollback "
            f"probability {forecast.rollback_probability:.1%}"
        )
    return exit_code


def cmd_lint(args) -> int:
    from ..lint import (
        BaselineError,
        LintConfig,
        LintResult,
        apply_baseline,
        fix_path,
        lint_path,
        load_baseline,
        render_github,
        render_json,
        render_sarif,
        render_text,
        write_baseline,
    )

    if args.update_baseline and args.baseline is None:
        print("error: --update-baseline requires --baseline", file=sys.stderr)
        return 2
    if args.fix:
        for path in args.files:
            try:
                fixed = fix_path(str(path))
            except OSError as exc:
                print(f"error: cannot fix {path}: {exc}", file=sys.stderr)
                return 2
            for edit in fixed.edits:
                print(f"fixed {path}: {edit}", file=sys.stderr)
    config = LintConfig.from_flags(select=args.select, ignore=args.ignore)
    results = [lint_path(str(path), config=config) for path in args.files]
    if args.update_baseline:
        count = write_baseline(str(args.baseline), results)
        print(
            f"baseline {args.baseline}: recorded {count} finding"
            f"{'s' if count != 1 else ''}"
        )
        return 0
    if args.baseline is not None:
        try:
            fingerprints = load_baseline(str(args.baseline))
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results = [apply_baseline(result, fingerprints) for result in results]
    if args.format == "github":
        rendered = "\n".join(
            render_github(result) for result in results if result.diagnostics
        )
        if rendered:
            print(rendered)
    elif args.format == "text":
        print("\n\n".join(render_text(result) for result in results))
    elif args.format == "json":
        import json as json_module

        if len(results) == 1:
            print(render_json(results[0]))
        else:
            files = [json_module.loads(render_json(result)) for result in results]
            totals = {
                name: sum(entry["summary"][name] for entry in files)
                for name in ("error", "warning", "info")
            }
            print(
                json_module.dumps(
                    {"files": files, "summary": totals}, indent=2
                )
            )
    else:  # sarif — diagnostics carry their file, so one merged run works
        merged = LintResult(
            [d for result in results for d in result.diagnostics]
        )
        print(render_sarif(merged))
    codes = {result.exit_code(strict=args.strict) for result in results}
    if 3 in codes:
        return 3
    if 4 in codes:
        return 4
    return 0


def cmd_explain(args) -> int:
    from ..lint.catalogue import explain

    rendered = explain(args.code)
    if rendered is None:
        print(f"error: unknown rule code {args.code!r}", file=sys.stderr)
        return 1
    print(rendered)
    return 0


def cmd_render(args) -> int:
    try:
        compiled = _load_document(args.file)
    except (DslError, YamlError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    if args.mermaid:
        print(render_mermaid(compiled.strategy.automaton))
    else:
        print(render_strategy(compiled.strategy))
    return 0


async def _run_local(args) -> int:
    try:
        compiled = _load_document(args.file)
    except (DslError, YamlError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    controller = HttpProxyController(compiled.deployment.proxies())
    engine = Engine(controller=controller)
    if args.prometheus:
        engine.register_provider(
            "prometheus", HttpPrometheusProvider(args.prometheus)
        )
    if not args.quiet:
        engine.bus.subscribe(lambda event: print(render_event(event.to_wire())))
    execution_id = engine.enact(compiled.strategy)
    report = await engine.wait(execution_id)
    await engine.shutdown()
    await controller.close()
    print(
        f"{report.strategy}: {report.status.value} after {report.duration:.3f}s, "
        f"path {' -> '.join(report.path)}"
    )
    return 0 if report.status is ExecutionStatus.COMPLETED else 2


async def _serve(args) -> int:
    engine = Engine(controller=HttpProxyController({}))
    if args.prometheus:
        engine.register_provider(
            "prometheus", HttpPrometheusProvider(args.prometheus)
        )
    api = EngineApiServer(engine, host=args.host, port=args.port)
    await api.start()
    print(f"bifrost engine API on http://{api.address}")
    dashboard = None
    if args.dashboard_port is not None:
        dashboard = DashboardServer(engine, host=args.host, port=args.dashboard_port)
        await dashboard.start()
        print(f"bifrost dashboard on http://{dashboard.address}")
    try:
        while True:
            await asyncio.sleep(3600)
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        if dashboard is not None:
            await dashboard.stop()
        await api.stop()
        await engine.shutdown()
    return 0


async def _proxy(args) -> int:
    from ..proxy import BifrostProxy

    proxy = BifrostProxy(
        args.service,
        args.default_upstream,
        host=args.host,
        port=args.port,
        seed=args.seed,
    )
    await proxy.start()
    print(
        f"bifrost proxy for {args.service!r} on http://{proxy.address} "
        f"(default upstream {args.default_upstream})",
        flush=True,
    )
    try:
        while True:
            await asyncio.sleep(3600)
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        await proxy.stop()
    return 0


def _rehearsal_fixtures(compiled, overrides: dict[str, float]):
    """Providers + constant metric series for an in-process game day.

    Every ``(provider, query)`` pair referenced by the strategy's checks
    or the campaign's steady-state hypotheses gets a flat series (value
    0.0 unless overridden with ``--metric``), recorded under the query
    string — rehearsal documents should use bare metric names as
    queries.  One LocalPrometheusProvider is registered per referenced
    provider name so the engine never reaches for real infrastructure.
    """
    from ..metrics.store import MetricStore

    conditions = []
    for state in compiled.strategy.automaton.states.values():
        conditions.extend(check.condition for check in state.checks)
    conditions.extend(check.condition for check in compiled.chaos.steady_state)
    referenced: dict[str, set[str]] = {}
    for condition in conditions:
        for query in condition.queries:
            referenced.setdefault(query.provider, set()).add(query.query)
    if not referenced:
        referenced = {"prometheus": set()}
    stores = {}
    for provider_name, queries in referenced.items():
        store = MetricStore()
        for query in queries:
            value = overrides.get(query, 0.0)
            for second in range(0, 3600, 5):
                store.record(query, value, float(second))
        stores[provider_name] = store
    return stores


async def _chaos_run(args) -> int:
    from ..clock import VirtualClock
    from ..core.engine import RecordingController, StrategyRejectedError
    from ..metrics.provider import LocalPrometheusProvider
    from ..resilience.chaos import run_game_day

    try:
        compiled = _load_document(args.file)
    except (DslError, YamlError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    if compiled.chaos is None:
        print(
            f"error: {args.file} has no chaos section; nothing to run",
            file=sys.stderr,
        )
        return 2
    campaign = compiled.chaos
    if args.seed is not None:
        campaign.seed = args.seed
    overrides: dict[str, float] = {}
    for entry in args.metric or []:
        name, _, raw = entry.partition("=")
        try:
            overrides[name] = float(raw)
        except ValueError:
            print(f"error: bad --metric {entry!r}", file=sys.stderr)
            return 1

    controller = None
    if args.rehearse:
        clock = VirtualClock()
        engine = Engine(controller=RecordingController(), clock=clock)
        for name, store in _rehearsal_fixtures(compiled, overrides).items():
            engine.register_provider(name, LocalPrometheusProvider(store, clock))
    else:
        controller = HttpProxyController(compiled.deployment.proxies())
        engine = Engine(controller=controller)
        if args.prometheus:
            engine.register_provider(
                "prometheus", HttpPrometheusProvider(args.prometheus)
            )
    if not args.quiet:
        engine.bus.subscribe(lambda event: print(render_event(event.to_wire())))
    try:
        report = await run_game_day(
            compiled.strategy,
            campaign,
            engine,
            allow_findings=args.allow_findings,
        )
    except StrategyRejectedError as exc:
        for diagnostic in exc.diagnostics:
            print(f"  {diagnostic}", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        await engine.shutdown()
        if controller is not None:
            await controller.close()
    print(
        f"game day {report.campaign!r} (seed {campaign.seed}): "
        f"{report.status}, path {' -> '.join(report.execution.path) or '-'}"
    )
    print(
        f"  injections: {len(report.injections)}, "
        f"violations: {len(report.violations)}, aborted: {report.aborted}"
    )
    if report.unbound_targets:
        print(f"  unbound targets: {', '.join(report.unbound_targets)}")
    return 0 if report.status == "completed" else 2


async def _status(args) -> int:
    async with HttpClient() as client:
        response = await client.get(f"http://{args.engine}/api/executions")
        print(render_executions(response.json()["executions"]))
    return 0


async def _events(args) -> int:
    async with HttpClient() as client:
        response = await client.get(
            f"http://{args.engine}/api/events?since={args.since}"
        )
        for event in response.json()["events"]:
            print(render_event(event))
    return 0


async def _cancel(args) -> int:
    from urllib.parse import quote

    async with HttpClient() as client:
        response = await client.delete(
            f"http://{args.engine}/api/executions/{quote(args.execution, safe='')}"
        )
        if response.status != 200:
            print(f"error: {response.json().get('error')}", file=sys.stderr)
            return 1
        print(f"cancelled {args.execution}")
    return 0


async def _pause_resume(args, action: str) -> int:
    from urllib.parse import quote

    async with HttpClient() as client:
        response = await client.post(
            f"http://{args.engine}/api/executions/"
            f"{quote(args.execution, safe='')}/{action}"
        )
        if response.status != 200:
            print(f"error: {response.json().get('error')}", file=sys.stderr)
            return 1
        print(f"{response.json()['status']} {args.execution}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "explain":
        return cmd_explain(args)
    if args.command == "render":
        return cmd_render(args)
    if args.command == "run":
        return asyncio.run(_run_local(args))
    if args.command == "serve":
        return asyncio.run(_serve(args))
    if args.command == "proxy":
        return asyncio.run(_proxy(args))
    if args.command == "chaos":
        if args.chaos_command == "run":
            return asyncio.run(_chaos_run(args))
        raise AssertionError(f"unhandled chaos action {args.chaos_command!r}")
    if args.command == "status":
        return asyncio.run(_status(args))
    if args.command == "events":
        return asyncio.run(_events(args))
    if args.command == "cancel":
        return asyncio.run(_cancel(args))
    if args.command == "pause":
        return asyncio.run(_pause_resume(args, "pause"))
    if args.command == "resume":
        return asyncio.run(_pause_resume(args, "resume"))
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
