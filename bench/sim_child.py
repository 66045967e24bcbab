"""One simulator job in a fresh interpreter: build, run, oracle pass.

``python sim_child.py <workload> <seed> <variant> [<profile-out>]``
prints ``built`` once the cluster exists, then one JSON object.
Variants change nothing but the observability knobs:

* ``base``     — the workload as defined (flight recorder on, spans off);
* ``noflight`` — ``flight_recorder=False``;
* ``spans`` / ``full`` — ``trace_level`` set accordingly;
* ``profile``  — ``base`` with ``cProfile`` around ``cluster.run()``,
  stats dumped to ``<profile-out>``.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time

from speed import SpeedMeter

_VARIANTS = {
    "base": {},
    "profile": {},
    "noflight": {"flight_recorder": False},
    "spans": {"trace_level": "spans"},
    "full": {"trace_level": "full"},
}


def _ms(seconds) -> float:
    return 0.0 if seconds is None else seconds * 1e3


def main(argv) -> int:
    workload, seed, variant = argv[0], int(argv[1]), argv[2]
    # The meter thread shares the GIL with the job, so the job's own
    # cost is this thread's CPU time, not wall time.
    clock = time.thread_time
    with SpeedMeter() as meter:
        # Imported here, not at the top: loading the program is part of
        # the set-up the parent times, so the meter has to be running.
        from repro.experiments.runner import collect_job_metrics

        from workloads import SIM_SPECS

        started = clock()
        spec = SIM_SPECS[workload](seed).with_overrides(**_VARIANTS[variant])
        cluster = spec.build(seed)
        cluster.build()
        build_s = clock() - started
        setup_speed = meter.mark()
        print("built", flush=True)

        # Everything built so far lives for the whole run; keeping it
        # out of the collector's generations takes GC pauses that
        # depend on heap history out of the timing.
        gc.collect()
        gc.freeze()

        profiler = None
        if variant == "profile":
            import cProfile

            profiler = cProfile.Profile()
        run_start = clock()
        if profiler is not None:
            profiler.enable()
        cluster.run()
        if profiler is not None:
            profiler.disable()
        run_s = clock() - run_start
        run_speed = meter.mark()
        if profiler is not None:
            profiler.dump_stats(argv[3])

        collect_start = clock()
        metrics = collect_job_metrics(cluster, spec)
        collect_s = clock() - collect_start
        collect_speed = meter.mark()

    # Client-visible latency on the simulated clock: submit -> commit.
    latencies = sorted(cluster.workload.end_to_end_latencies())
    p90 = latencies[max(1, -(-len(latencies) * 9 // 10)) - 1]
    txs = metrics["txs"]
    breakdown = metrics["latency_breakdown"]
    strong = {p["ratio"]: p["mean_latency_s"]
              for p in metrics["strong_latency_series"]}
    commits = max(1, metrics["commits"])
    out = {
        "ok": bool(metrics["invariants"]["ok"] and metrics["safety_ok"]),
        "violations": metrics["invariants"].get("violations", [])[:3],
        # CPU seconds of the job's thread, as measured ...
        "raw_run_s": run_s,
        "raw_job_s": build_s + run_s + collect_s,
        "run_speed": run_speed,
        "setup_speed": setup_speed,
        # ... and at reference speed (see speed.py).
        "run_s": run_s * run_speed,
        "collect_s": collect_s * collect_speed,
        "job_s": (build_s + run_s) * run_speed + collect_s * collect_speed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Functions of (spec, seed) alone: identical on every repeat.
        "exact": {
            "events": metrics["events"],
            "commits": metrics["commits"],
            "txs_committed": txs["committed_unique"],
            "tx_duplicates": txs["duplicates"],
            "lat_p50_ms": _ms(txs["e2e_p50_s"]),
            "lat_p90_ms": _ms(p90),
            "commit_lat_ms": _ms(metrics["regular_latency_p50_s"]),
            "strong2f_lat_ms": _ms(strong.get(2.0)),
            "msgs_per_commit": metrics["messages"]["per_commit"] or 0.0,
            "bytes_per_commit": metrics["messages"]["bytes"] / commits,
            "sync_requests": metrics["sync"]["requests"],
            "wal_records": metrics.get("recoveries", {}).get("records", 0),
            "peak_live_blocks": metrics["checkpoint"]["peak_live_blocks"],
            "phase.mempool_wait_ms": _ms(breakdown["mempool_wait_s"]),
            "phase.proposal_to_qc_ms": _ms(breakdown["proposal_to_qc_s"]),
            "phase.qc_to_endorse_ms": _ms(breakdown["qc_to_endorse_s"]),
            "phase.endorse_to_commit_ms": _ms(breakdown["endorse_to_commit_s"]),
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
