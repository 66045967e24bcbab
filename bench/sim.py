"""Simulator tier: repeat one deterministic job in fresh interpreters.

A job's counts are a function of (spec, seed); only its time varies.
Each repeat is a new process so heap history, import caches and GC
state of one repeat cannot leak into the next.  Times are the job
thread's CPU seconds at reference speed (see speed.py), and the
reported values are medians over the repeats.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_CHILD = str(_HERE / "sim_child.py")
#: Fewest repeats behind a median (``--quick`` runs one).
MIN_REPEATS = 3


def run_child(workload: str, seed: int, variant: str = "base",
              profile_out: str | None = None) -> dict:
    """Run one job; adds ``setup_s``: spawn -> cluster built, wall
    seconds put at reference speed by the child's own meter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_HERE), str(_HERE.parent / "src")]
    )
    argv = [sys.executable, _CHILD, workload, str(seed), variant]
    if profile_out is not None:
        argv.append(profile_out)
    started = time.perf_counter()
    with subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, text=True
    ) as child:
        built = child.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = child.stdout.read()
    if child.returncode != 0 or built.strip() != "built":
        raise RuntimeError(
            f"sim job {workload}/{variant} exited with {child.returncode}"
        )
    result = json.loads(rest)
    result["setup_s"] = setup_s * result["setup_speed"]
    return result


def run(workload: str, seed: int, seconds: float, repeats: int | None) -> dict:
    """Repeat the job ``repeats`` times or, with None, for ``seconds``
    (at least MIN_REPEATS times)."""
    if repeats is not None:
        return summarize([run_child(workload, seed) for _ in range(repeats)])
    deadline = time.perf_counter() + seconds
    results = []
    while len(results) < MIN_REPEATS or time.perf_counter() < deadline:
        results.append(run_child(workload, seed))
    return summarize(results)


def summarize(results: list) -> dict:
    """Gate the repeats of one job and reduce their times to medians."""
    problems = []
    exact = results[0]["exact"]
    if any(r["exact"] != exact for r in results):
        problems.append("deterministic counts differ between repeats")
    for result in results:
        if not result["ok"]:
            problems.append(f"invariant oracle failed: {result['violations']}")
            break
    if exact["txs_committed"] < 1:
        problems.append("no transaction committed")

    def median(key: str) -> float:
        return statistics.median(r[key] for r in results)

    txs = max(1, exact["txs_committed"])
    out = {
        "problems": problems,
        "attempted": txs * len(results),
        "exact": exact,
        "setup_s": median("setup_s"),
        "lat_p50_ms": exact["lat_p50_ms"],
        "lat_p90_ms": exact["lat_p90_ms"],
        "tput_tx_s": txs / median("run_s"),
        "cpu_ms_per_tx": median("job_s") * 1e3 / txs,
        "rss_peak_mb": median("rss_mb"),
        "events_per_s": exact["events"] / median("run_s"),
    }
    for key in ("run_s", "collect_s", "job_s", "run_speed"):
        out[key] = median(key)
    return out
