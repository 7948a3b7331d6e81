"""A/A: run the whole benchmark N times on one commit and compare the runs.

``python3 -m bench.aa --runs 6`` runs every workload N times (seeds 1..N,
untraced, one child process per run) and prints, per workload and
end-to-end metric, the (max - min) / median and the quartile distance over
the N values beside the metric's bound.  It exits non-zero if any spread
exceeds its bound.  It also prints, from the per-window files the runs
leave in ``bench/out/``, what the calibration bought: the same spreads for
raw wall-clock throughput, for calibrated throughput, and for calibrated
throughput over undisturbed windows only.  ``bench/AA.md`` is this
script's committed output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from . import stats
from .calibrate import CALIB_REF_CPU_S, neighbours_disagree, speed_factor
from .run import END_TO_END, OUT, ROOT, RUN_SECONDS, WORKLOADS


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "-m", "bench.run", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if child.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {child.returncode}")
    result = json.loads(child.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def window_throughputs(workload: str, seed: int) -> dict[str, float]:
    """Median window throughput of one run: raw, calibrated, filtered."""
    path = OUT / f"windows-{workload}-seed{seed}-trace0.json"
    windows = json.loads(path.read_text())["windows"]
    raw, calibrated, undisturbed = [], [], []
    for w in windows:
        factor = speed_factor(w["calib_before_s"], w["calib_after_s"])
        raw.append(w["ops"] / w["wall_s"])
        calibrated.append(w["ops"] / ((w["wall_s"] - w["queued_s"]) * factor))
        if not neighbours_disagree(w["calib_before_s"], w["calib_after_s"]) and (
            w["cpu_s"] / w["wall_s"] >= stats.MIN_BUSY_SHARE
        ):
            undisturbed.append(calibrated[-1])
    return {
        "raw": stats.median(raw),
        "calibrated": stats.median(calibrated),
        "calibrated, undisturbed only": stats.median(undisturbed or calibrated),
        "kernel_cpu_s": stats.median(
            (w["calib_before_s"] + w["calib_after_s"]) / 2 for w in windows
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.aa", description=__doc__)
    parser.add_argument("--runs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    args = parser.parse_args(argv)
    if args.runs < 4:
        parser.error("quartiles need at least 4 runs")
    seeds = range(1, args.runs + 1)
    # Round-robin over workloads, so each workload's runs spread over the
    # whole session instead of sharing one quiet or noisy minute.
    results: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    for seed in seeds:
        for name in WORKLOADS:
            results[name].append(run_once(name, seed, args.seconds))
            print(f"ran {name} seed {seed}", file=sys.stderr)

    failed = False
    print(f"A/A over {args.runs} runs per workload, {args.seconds:g} s each, "
          f"CALIB_REF_CPU_S = {CALIB_REF_CPU_S}\n")
    print("| workload | metric | median | (max-min)/median | IQR/median | bound | |")
    print("|---|---|---|---|---|---|---|")
    for name, runs in results.items():
        for metric, (unit, _, bound) in END_TO_END.items():
            values = [run[metric] for run in runs]
            spread = stats.quartile_spread(values)
            over = spread > bound
            failed = failed or (over and metric != "setup_s")
            print(
                f"| {name} | {metric} | {stats.median(values):.5g} {unit} | "
                f"{stats.range_spread(values):.1%} | {spread:.1%} | {bound:.0%} | "
                f"{'OVER' if over else 'ok'} |"
            )
    print("\nWhat calibration bought (median window throughput per run):\n")
    print("| workload | statistic | (max-min)/median | IQR/median |")
    print("|---|---|---|---|")
    for name in WORKLOADS:
        per_run = [window_throughputs(name, seed) for seed in seeds]
        for statistic in per_run[0]:
            values = [run[statistic] for run in per_run]
            print(
                f"| {name} | {statistic} | {stats.range_spread(values):.1%} | "
                f"{stats.quartile_spread(values):.1%} |"
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
