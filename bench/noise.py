"""Is the benchmark steadier than its own bounds?

    python3 bench/noise.py [--runs 10] [--workload NAME ...]

Measures the same checkout twice.  Each set runs every workload once
per seed (seeds 1..runs) with tracing off.  For every end-to-end
metric x workload it prints both medians, their gap in the metric's
worse direction as a share of the first median, each set's
interquartile spread as a share of its median, and the bound.

It exits non-zero if a gap exceeds its bound, or a spread does (set-up
time's spread is reported but not judged: its bound guards the median
only).  A bound that fails here is too tight for this machine and has
to be widened before any change is judged by it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def measure(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} operations failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list) -> float:
    first, _median, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="seeds per workload per set (at least 2)")
    parser.add_argument("--workload", nargs="+", metavar="NAME",
                        default=[w["name"] for w in contract["workloads"]])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    sets = []
    for number in (1, 2):
        values: dict = {}
        for workload in args.workload:
            for seed in range(1, args.runs + 1):
                sample = measure(workload, seed, contract["run_seconds"])
                for metric, value in sample.items():
                    values.setdefault((workload, metric), []).append(value)
                print(f"# set {number} {workload} seed {seed}: " + " ".join(
                    f"{metric}={value:.4g}" for metric, value in sample.items()
                ), file=sys.stderr, flush=True)
        sets.append(values)

    print(f"{'workload':18s} {'metric':14s} {'median 1':>12s} {'median 2':>12s} "
          f"{'gap':>8s} {'spread 1':>9s} {'spread 2':>9s} {'bound':>6s}  verdict")
    failures = 0
    for workload in args.workload:
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            first, second = (statistics.median(s[key]) for s in sets)
            worse = second - first if metric["better"] == "lower" \
                else first - second
            gap = worse / first
            spreads = [spread(s[key]) for s in sets]
            judged = [gap] if metric["name"] == "setup_s" else [gap, *spreads]
            ok = all(value <= metric["bound"] for value in judged)
            failures += not ok
            print(f"{workload:18s} {metric['name']:14s} {first:12.4f} "
                  f"{second:12.4f} {gap:+8.2%} {spreads[0]:9.2%} "
                  f"{spreads[1]:9.2%} {metric['bound']:6.2f}  "
                  f"{'ok' if ok else 'TOO NOISY'}")
    print(f"{failures} of {len(args.workload) * len(contract['end_to_end'])} "
          "metric x workload pairs outside their bound")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
