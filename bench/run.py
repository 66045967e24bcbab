"""The benchmark's one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload (or several, or all when none is named), checks that
what the program produced is correct, prints every metric by name with
its unit, and ends with one JSON line per workload in the shape
BENCHMARK.json's contract fixes.  ``--trace 0`` measures the
end-to-end metrics with all tracing off; ``--trace 1`` (``--layers``)
measures the per-layer metrics: micro-benchmarks, run-derived counts,
and a separate profiled run for the per-package shares.

Metric names and units are read from BENCHMARK.json, so the file and
this program cannot drift apart: a metric measured but not declared,
or declared but never measured on any tier, is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

QUICK_SECONDS = 3


def _rt_layers(n, rate, seed, seconds, workdir) -> tuple:
    """Counts from an untraced run, shares from a profiled one."""
    import rt
    import shares

    half = max(1.0, seconds / 2)
    plain = rt.run(n, rate, seed, half, workdir, setups=1)
    profiles = workdir.parent / f"{workdir.name}-profiles"
    try:
        traced = rt.run(n, rate, seed, half, workdir, setups=1,
                        profile_dir=profiles)
        split = shares.package_shares(sorted(profiles.glob("*.prof")))
    finally:
        shutil.rmtree(profiles, ignore_errors=True)
    plain["problems"] += [f"traced run: {p}" for p in traced["problems"]]
    values = {f"share.{name}": share for name, share in split.items()}
    for key in ("blocks_per_s", "tx_per_block", "frames_per_block",
                "replica_cpu_cores", "driver_cpu_s", "sched_late_p99_ms",
                "lat_p99_ms", "lat_samples", "mempool_pending_end",
                "send_errors"):
        values[f"rt.{key}"] = plain[key]
    values["machine.speed"] = plain["speed"]
    values["trace.overhead_frac"] = (
        traced["cpu_ms_per_tx"] / plain["cpu_ms_per_tx"] - 1.0
    )
    return plain, values


def _sim_layers(name, seed, workdir) -> tuple:
    """Two jobs per observability variant, plus a profiled one.

    The variants differ by a few percent, less than one job's timing
    noise, so each side of a ratio is the faster of two jobs: for
    deterministic single-threaded work the minimum is the least
    disturbed reading.
    """
    import shares
    import sim

    def twice(variant: str) -> list:
        return [sim.run_child(name, seed, variant) for _ in range(2)]

    def fastest(jobs: list) -> float:
        return min(job["run_s"] for job in jobs)

    base_jobs = twice("base")
    result = sim.summarize(base_jobs)
    variants = {v: twice(v) for v in ("noflight", "spans", "full")}
    workdir.mkdir(parents=True, exist_ok=True)
    profile = workdir / "sim.prof"
    try:
        traced = sim.run_child(name, seed, "profile", str(profile))
        split = shares.package_shares([profile])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    exact = result["exact"]
    for job in [traced] + [j for jobs in variants.values() for j in jobs]:
        if job["exact"] != exact:
            result["problems"].append(
                "an observability variant changed the deterministic counts"
            )
            break
    base = fastest(base_jobs)
    values = {f"share.{pkg}": share for pkg, share in split.items()}
    values.update({
        "sim.events_per_s": result["events_per_s"],
        "sim.job_s": result["job_s"],
        "sim.run_s": result["run_s"],
        "machine.speed": result["run_speed"],
        "sim.collect_s": result["collect_s"],
        "trace.overhead_frac": traced["run_s"] / base - 1.0,
        "obs.flight_cost_frac": 1.0 - fastest(variants["noflight"]) / base,
        "obs.spans_cost_frac": fastest(variants["spans"]) / base - 1.0,
        "obs.full_cost_frac": fastest(variants["full"]) / base - 1.0,
    })
    for key, value in exact.items():
        if key not in ("txs_committed", "lat_p50_ms", "lat_p90_ms"):
            values[f"sim.{key}"] = value
    return result, values


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, declared: dict) -> dict:
    """Measure one workload; returns the contract's result object."""
    import rt
    import sim
    from workloads import WORKLOADS

    tier, params = WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{os.getpid()}-{name}"
    if trace:
        import layers

        if tier == "rt":
            result, values = _rt_layers(
                params["n"], params["rate"], seed, seconds, workdir
            )
        else:
            result, values = _sim_layers(name, seed, workdir)
        values.update(layers.run(seed))
    else:
        if tier == "rt":
            result = rt.run(params["n"], params["rate"], seed, seconds,
                            workdir, setups=1 if quick else rt.SETUPS)
        else:
            result = sim.run(name, seed, seconds, 1 if quick else None)
        values = {metric: result[metric] for metric in declared}

    correct = not result["problems"]
    for problem in result["problems"]:
        print(f"INCORRECT {name}: {problem}", file=sys.stderr)
    attempted = max(1, result["attempted"])
    failed = result.get("failed", 0) if correct else attempted
    if trace:
        values["fail_frac"] = failed / attempted
    unknown = sorted(set(values) - set(declared))
    if unknown:
        raise SystemExit(f"measured but not in BENCHMARK.json: {unknown}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # A per-layer metric of the other tier reads 0 on this workload.
        "metrics": {
            metric: {"value": float(values.get(metric, 0.0)), "unit": unit}
            for metric, unit in declared.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", metavar="NAME",
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layers", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS} s windows, one set-up, one "
                             "simulator repeat: a smoke run, not a measurement")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the results as a JSON list")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    names = args.workload or [w["name"] for w in contract["workloads"]]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    trace = bool(args.trace or args.layers)
    seconds = args.seconds or contract["run_seconds"]
    if args.quick:
        seconds = QUICK_SECONDS
    declared = {
        metric["name"]: metric["unit"]
        for metric in contract["per_layer" if trace else "end_to_end"]
    }

    results = []
    try:
        for name in names:
            result = run_workload(
                name, args.seed, seconds, trace, args.quick, declared
            )
            results.append({"workload": name, **result})
            for metric, entry in result["metrics"].items():
                print(f"{name:18s} {metric:34s} "
                      f"{entry['value']:14.4f} {entry['unit']}")
            print(json.dumps(result), flush=True)
    finally:
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # never made, or another run is still using it
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
