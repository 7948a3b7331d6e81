"""Seeded generative soak corpus: random strategies × faults × workloads.

A single chaos test proves one scenario; the corpus proves the
*invariants* — properties that must hold for every strategy the DSL can
express under every fault schedule the chaos layer can inject:

* the shared check scheduler never leaks tasks, and the virtual clock
  never strands sleepers (``pending_checks == 0``, ``pending_sleepers
  == 0`` after shutdown);
* every routing config the engine ever applies — including safe-routing
  recovery after an abort — is internally consistent: splits sum to
  100, every version is declared;
* metric store generations are monotonic while the scenario runs;
* the whole run is deterministic: one seed, one event-trace signature,
  regardless of when the corpus is run.

Each scenario is derived from a single integer seed via
``random.Random(f"bifrost-corpus:{seed}")`` — a red scenario is
reproduced by its seed alone (``PYTHONPATH=src python -m
tests.resilience.soak_corpus --only-seed N`` from the repository root).
Everything runs under :class:`~repro.clock.VirtualClock`, so hundreds of
multi-minute game days soak in seconds of wall time.  Fault modes are
restricted to ``error``/``latency`` — ``hang`` would need per-scenario
watchdog budgets and adds no invariant coverage.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import random
import sys
from dataclasses import dataclass, field

from repro.clock import VirtualClock
from repro.core.builder import StrategyBuilder
from repro.core.checks import (
    ExceptionCheck,
    MetricCondition,
    ProviderErrorPolicy,
    Timer,
    simple_basic_check,
)
from repro.core.engine import Engine, RecordingController
from repro.core.routing import canary_split, single_version
from repro.metrics.provider import LocalPrometheusProvider
from repro.metrics.store import MetricStore
from repro.resilience.chaos import ChaosCampaign, FaultSpec, run_game_day

_METRICS = ("errors_total", "latency_p99", "saturation_ratio")

#: Per-metric validators scaled to each metric's plausible range, so the
#: generated checks carry real signal — a uniform "< 50" over a metric
#: the naming convention bounds to [0, 1] is a tautology (BF602), and
#: corpus strategies must stay clean under the semantic lint pass.
_VALIDATORS = {
    "errors_total": "< 50",
    "latency_p99": "< 500",
    "saturation_ratio": "< 0.9",
}


@dataclass
class Scenario:
    """One generated soak case, fully determined by its seed."""

    seed: int
    phases: list[dict]
    services: dict[str, dict[str, str]]
    specs: list[FaultSpec]
    workload: dict[str, float]
    steady_tolerant: bool


@dataclass
class ScenarioResult:
    seed: int
    status: str
    path: list[str]
    injections: int
    aborted: bool
    signature: str
    error: str | None = None


@dataclass
class CorpusReport:
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def failures(self) -> list[ScenarioResult]:
        return [r for r in self.results if r.error is not None]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps(
            {
                "scenarios": len(self.results),
                "failures": [
                    {"seed": r.seed, "error": r.error} for r in self.failures
                ],
                "signatures": {str(r.seed): r.signature for r in self.results},
                "statuses": {str(r.seed): r.status for r in self.results},
            },
            indent=2,
        )


# -- generation -------------------------------------------------------------


def generate_scenario(seed: int) -> Scenario:
    """Derive one scenario from *seed* (pure: same seed, same scenario)."""
    rng = random.Random(f"bifrost-corpus:{seed}")
    versions = {"v1": "127.0.0.1:8081", "v2": "127.0.0.1:8082"}
    services = {"svc": dict(versions)}
    if rng.random() < 0.3:
        services["aux"] = {"v1": "127.0.0.1:8181", "v2": "127.0.0.1:8182"}

    phase_count = rng.randint(1, 3)
    phases = []
    for index in range(phase_count):
        phases.append(
            {
                "name": f"phase{index + 1}",
                "percentage": rng.choice((5.0, 10.0, 25.0, 50.0)),
                "duration": rng.choice((10.0, 20.0, 40.0)),
                "metric": rng.choice(_METRICS),
                "interval": rng.choice((2.0, 4.0)),
                "repetitions": rng.randint(2, 4),
                "checked": rng.random() < 0.8,
            }
        )
    # The rollback harbor must stay reachable: keep at least one
    # checked phase so `rollback` is never an orphan state.
    if not any(p["checked"] for p in phases):
        phases[0]["checked"] = True

    # Unused, but drawn: dropping the draw would shift every later
    # choice and change the scenario each seed names.
    rng.random()
    steady_tolerant = rng.random() < 0.5
    specs = []
    for index in range(rng.randint(0, 3)):
        target = rng.choice(["provider:prometheus", "controller"])
        mode = rng.choice(("error", "latency"))
        during = tuple(
            sorted(
                rng.sample(
                    [p["name"] for p in phases],
                    rng.randint(1, phase_count),
                )
            )
        )
        specs.append(
            FaultSpec(
                name=f"fault{index + 1}",
                target=target,
                mode=mode,
                phases=during,
                rate=rng.choice((0.2, 0.5, 0.9)),
                latency=rng.choice((0.5, 2.0)) if mode == "latency" else 0.0,
            )
        )

    workload = {
        name: rng.choice((0.0, 3.0, 20.0, 80.0)) for name in _METRICS
    }
    return Scenario(
        seed=seed,
        phases=phases,
        services=services,
        specs=specs,
        workload=workload,
        steady_tolerant=steady_tolerant,
    )


def _build_strategy(scenario: Scenario):
    builder = StrategyBuilder(f"soak-{scenario.seed}")
    for name, versions in scenario.services.items():
        builder.service(name, versions)
    names = [p["name"] for p in scenario.phases]
    for index, phase in enumerate(scenario.phases):
        following = names[index + 1] if index + 1 < len(names) else "done"
        state = builder.state(phase["name"]).route(
            "svc", canary_split("v1", "v2", phase["percentage"])
        )
        if phase["checked"]:
            state.check(
                simple_basic_check(
                    f"{phase['name']}_ok",
                    phase["metric"],
                    _VALIDATORS[phase["metric"]],
                    phase["interval"],
                    phase["repetitions"],
                    provider="prometheus",
                )
            ).transitions([0.5], ["rollback", following])
        else:
            state.dwell(phase["duration"]).goto(following)
    builder.state("done").route("svc", single_version("v2")).final()
    builder.state("rollback").route("svc", single_version("v1")).final(
        rollback=True
    )
    return builder.build()


def _build_campaign(scenario: Scenario) -> ChaosCampaign | None:
    if not scenario.specs:
        return None
    policy = (
        ProviderErrorPolicy(mode="tolerate", tolerance=50)
        if scenario.steady_tolerant
        else ProviderErrorPolicy()
    )
    steady = ExceptionCheck(
        "steady_guard",
        MetricCondition.simple("errors_total", "< 100", provider="prometheus"),
        Timer(3.0, 40),
        fallback_state="rollback",
        on_provider_error=policy,
    )
    return ChaosCampaign(
        name=f"soak-{scenario.seed}-chaos",
        specs=list(scenario.specs),
        steady_state=[steady],
        seed=scenario.seed,
    )


# -- execution + invariants -------------------------------------------------


def trace_signature(events) -> str:
    """Canonical digest of an event trace — the determinism witness."""
    digest = hashlib.blake2b(digest_size=16)
    for event in events:
        data = {k: repr(v) for k, v in sorted(event.data.items())}
        line = f"{event.at:.6f}|{event.strategy}|{event.kind.value}|{data}"
        digest.update(line.encode())
    return digest.hexdigest()


def _check_config(config, versions: set[str]) -> None:
    total = sum(split.percentage for split in config.splits)
    if abs(total - 100.0) > 1e-6:
        raise AssertionError(f"splits sum to {total}, not 100: {config}")
    for split in config.splits:
        if split.version not in versions:
            raise AssertionError(f"unknown version {split.version!r}: {config}")


async def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run one scenario and enforce every corpus invariant."""
    clock = VirtualClock()
    store = MetricStore()
    for name, value in scenario.workload.items():
        for second in range(0, 600, 2):
            store.record(name, value, float(second))

    recording = RecordingController()
    engine = Engine(controller=recording, clock=clock)
    engine.register_provider("prometheus", LocalPrometheusProvider(store, clock))

    strategy = _build_strategy(scenario)
    campaign = _build_campaign(scenario)
    generations = [store.generation]
    if campaign is None:
        execution_id = engine.enact(strategy, allow_findings=True)
        task = engine._tasks[execution_id]
        for _ in range(100_000):
            if task.done():
                break
            await clock.advance(0.5)
            generations.append(store.generation)
        execution = await engine.wait_report(execution_id)
        injections, aborted = 0, False
    else:
        report = await run_game_day(
            strategy, campaign, engine, allow_findings=True
        )
        execution = report.execution
        injections, aborted = len(report.injections), report.aborted
        generations.append(store.generation)

    # Invariant: generations never move backwards while soaking.
    for earlier, later in zip(generations, generations[1:]):
        assert later >= earlier, "store generation went backwards"

    # Invariant: every config the engine applied is internally valid.
    versions = {
        version
        for service in scenario.services.values()
        for version in service
    }
    for _service, config, _endpoints in recording.applied:
        _check_config(config, versions)

    signature = trace_signature(engine.bus.history)
    await engine.shutdown()

    # Invariant: nothing leaks — no stranded check tasks or sleepers.
    assert engine.scheduler.pending_checks == 0, "scheduler leaked checks"
    assert clock.pending_sleepers == 0, "virtual clock leaked sleepers"

    return ScenarioResult(
        seed=scenario.seed,
        status=execution.status.value,
        path=list(execution.path),
        injections=injections,
        aborted=aborted,
        signature=signature,
    )


async def run_corpus(
    count: int = 200,
    base_seed: int = 0,
    progress=None,
) -> CorpusReport:
    """Run *count* scenarios with seeds ``base_seed .. base_seed+count-1``.

    A scenario failure (invariant violation or crash) is captured into
    the report — the corpus always runs to completion so one red seed
    does not hide the others.
    """
    report = CorpusReport()
    for offset in range(count):
        seed = base_seed + offset
        scenario = generate_scenario(seed)
        try:
            result = await run_scenario(scenario)
        except Exception as exc:
            result = ScenarioResult(
                seed=seed,
                status="error",
                path=[],
                injections=0,
                aborted=False,
                signature="",
                error=f"{type(exc).__name__}: {exc}",
            )
        report.results.append(result)
        if progress is not None:
            progress(result)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tests.resilience.soak_corpus",
        description="seeded generative soak corpus for the chaos layer",
    )
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument(
        "--only-seed", type=int, default=None, help="reproduce one scenario"
    )
    parser.add_argument(
        "--json", metavar="PATH", help="write the full report as JSON"
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.only_seed is not None:
        args.base_seed, args.count = args.only_seed, 1

    def progress(result: ScenarioResult) -> None:
        if args.quiet and result.error is None:
            return
        note = f"ERROR {result.error}" if result.error else result.status
        print(
            f"seed {result.seed}: {note} path={'/'.join(result.path) or '-'} "
            f"injections={result.injections} sig={result.signature[:12]}"
        )

    report = asyncio.run(
        run_corpus(
            count=args.count,
            base_seed=args.base_seed,
            progress=progress,
        )
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    print(
        f"corpus: {len(report.results)} scenarios, "
        f"{len(report.failures)} failures"
    )
    if not report.ok:
        seeds = ", ".join(str(r.seed) for r in report.failures)
        print(f"reproduce with: PYTHONPATH=src python -m "
              f"tests.resilience.soak_corpus --only-seed "
              f"{report.failures[0].seed}  (failing seeds: {seeds})")
        return 1
    return 0


__all__ = [
    "CorpusReport",
    "Scenario",
    "ScenarioResult",
    "generate_scenario",
    "run_corpus",
    "run_scenario",
    "trace_signature",
]


if __name__ == "__main__":
    sys.exit(main())
