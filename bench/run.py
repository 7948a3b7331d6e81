"""``python3 -m bench.run``: the benchmark's one command.

With ``--workload NAME`` it runs that workload in this process (a fresh,
single-threaded asyncio process per invocation) and prints every metric by
name with its unit, then one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}`` - the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Without
``--workload`` it runs all four, untraced and traced, one child process
each.  ``bench/README.md`` has the method and the metric definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import subprocess
import sys
from pathlib import Path

from . import stats

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

RUN_SECONDS = 24

WORKLOADS = {
    "proxy_active_small": (
        "small requests through gateway, sticky A/B proxy with shadowing, stub: "
        "per-message cost dominates (Table 1 active)"
    ),
    "proxy_stream_large": (
        "512 KiB bodies streamed through the proxy with header routing: per-byte cost "
        "dominates, the proxy's decision path is bypassed"
    ),
    "enact_fanout": (
        "8 identical strategies x 24 checks, always-due timers: enactment delay is "
        "wave compute, every cache layer shares (Fig. 8/10 knee)"
    ),
    "metrics_ingest_query": (
        "256 distinct queries over 2k series, a generation bump every fifth op: "
        "low sharing, caches cost rather than pay"
    ),
}

#: name -> (unit, better, bound): the six end-to-end metrics.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_per_s": ("1/s", "higher", 0.20),
    "latency_p50_ms": ("ms", "lower", 0.20),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "cpu_ms_per_op": ("ms", "lower", 0.20),
    "peak_rss_mb": ("MB", "lower", 0.10),
}

#: Per-layer metrics where a larger value is the better one.
HIGHER_IS_BETTER = (
    "_hit_ratio", "_coalesced_ratio", "_per_s", "busy_share", "wave_size",
)


def manifest() -> dict:
    """The contents of ``BENCHMARK.json`` (a test keeps the file equal)."""
    from .layers import PER_LAYER

    return {
        "command": ["python3", "-m", "bench.run"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {
                "name": name,
                "unit": unit,
                "better": "higher" if name.endswith(HIGHER_IS_BETTER) else "lower",
            }
            for name, unit in PER_LAYER.items()
        ],
    }


async def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from . import harness, layers
    from .workloads import registry

    tracer = None
    if trace:
        from .trace import Tracer

        tracer = Tracer()
    workload_class = registry()[name]
    measurement, workload = await harness.measure(workload_class, seed, seconds, tracer)
    harness.self_check(measurement)
    for warning in harness.environment_warnings(measurement):
        print(f"bench.run: warning: {warning}", file=sys.stderr)
    if trace:
        metrics = layers.per_layer(measurement, workload.gauges())
        units = layers.PER_LAYER
        tracer.write(OUT / f"trace-{name}.jsonl")
    else:
        metrics = harness.end_to_end(measurement)
        units = {metric: unit for metric, (unit, _, _) in END_TO_END.items()}
    _write_windows(name, seed, trace, measurement)
    windows = measurement.windows
    attempted = sum(w.ops for w in windows)
    failed = sum(w.failed for w in windows)
    print(f"workload     {name}")
    print(f"seed         {seed}")
    print(f"fingerprint  {workload.fingerprint()}")
    print(
        f"windows      {len(windows)} measured, "
        f"{sum(w.traced for w in windows)} traced, {windows[0].ops} ops each; "
        f"{attempted} ops attempted, {failed} failed"
    )
    for error in measurement.errors:
        print(f"error        {error}")
    for metric, value in metrics.items():
        print(f"{metric:42s} {value:14.6g} {units[metric]}")
    return {
        "correct": failed == 0 and not measurement.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }


def _write_windows(name: str, seed: int, trace: bool, measurement) -> None:
    """Raw per-window numbers, so ``bench.aa`` can compare raw with calibrated."""
    OUT.mkdir(parents=True, exist_ok=True)
    rows = [
        {
            "ops": w.ops, "failed": w.failed, "wall_s": w.wall_s, "cpu_s": w.cpu_s,
            "queued_s": w.queued_s,
            "calib_before_s": w.calib_before_s, "calib_after_s": w.calib_after_s,
            "p50_s": stats.percentile(w.latencies_s, 0.5),
            "p90_s": stats.percentile(w.latencies_s, 0.9),
            "traced": w.traced,
        }
        for w in measurement.windows
    ]
    path = OUT / f"windows-{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"setups_s": measurement.setups_s, "windows": rows}))


def run_all(seed: int, seconds: float) -> int:
    """All four workloads, untraced then traced, one child process each."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, "-m", "bench.run", "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            ]
            child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if child.returncode != 0:
                print(f"{name} --trace {trace}: exit code {child.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            print(f"correct      {result['correct']}\n")
            if not result["correct"]:
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.run", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench.run: no src/repro beside bench/: nothing to measure", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    sys.path.insert(0, str(ROOT / "src"))
    from .harness import SelfCheckFailed

    try:
        result = asyncio.run(
            run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        )
    except SelfCheckFailed as failure:
        print(f"bench.run: self-check failed: {failure}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
