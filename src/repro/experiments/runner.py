"""Parallel campaign execution and metric aggregation.

Each :class:`~repro.experiments.campaign.Job` is an independent,
fully-deterministic simulation, so a campaign is embarrassingly
parallel: :class:`CampaignRunner` fans jobs out over a
``multiprocessing`` pool and reassembles the results in job order,
making the report independent of worker count and completion order.

Per-job metrics are split into a ``metrics`` section — deterministic
for a fixed spec + seed, byte-identical across runs and worker counts —
and a ``wall_clock_s`` timing that naturally varies.  Regression
baselines (:mod:`repro.experiments.baseline`) compare only the
deterministic section.
"""

from __future__ import annotations

import multiprocessing
import time

from repro.analysis.chain_stats import collect_chain_stats
from repro.analysis.health import QCDiversityMonitor
from repro.analysis.invariants import (
    check_appendix_c,
    check_cluster_invariants,
    invariant_report,
)
from repro.experiments.campaign import Campaign
from repro.obs import breakdown_from_cluster, collect_flight_recording
from repro.runtime.metrics import (
    LatencyReport,
    check_commit_safety,
    commit_latency_percentiles,
    messages_per_committed_block,
    percentile,
    regular_commit_latency,
    strong_latency_series,
    throughput_txps,
)


def _workload_metrics(cluster, reference) -> dict:
    """Real-transaction accounting (zeros when no workload is attached).

    ``committed_unique`` follows the executor's exactly-once rule
    (distinct txids in the reference observer's committed chain);
    ``duplicates`` counts re-proposed occurrences that wasted block
    space.
    """
    workload = getattr(cluster, "workload", None)
    if workload is None:
        return {
            "submitted": 0,
            "committed_unique": 0,
            "duplicates": 0,
            "per_sec": 0.0,
            "e2e_p50_s": None,
            "e2e_p99_s": None,
        }
    unique, duplicates = workload.committed_tx_stats(reference)
    horizon = cluster.simulator.now
    latencies = workload.end_to_end_latencies()
    return {
        "submitted": workload.submitted,
        "committed_unique": unique,
        "duplicates": duplicates,
        "per_sec": _round(unique / horizon if horizon > 0 else 0.0, 3),
        "e2e_p50_s": _round(percentile(latencies, 0.5)),
        "e2e_p99_s": _round(percentile(latencies, 0.99)),
    }


def _round(value, digits: int = 6):
    return None if value is None else round(value, digits)


def _series_metrics(cluster, spec) -> list:
    """Figure-7-style series as plain dicts (JSON- and diff-friendly)."""
    series = strong_latency_series(
        cluster,
        spec.ratios,
        created_before=spec.duration * spec.cutoff_fraction,
        observers=spec.series_observers,
    )
    return [
        {
            "ratio": point.ratio,
            "level": point.level,
            "mean_latency_s": _round(point.mean_latency),
            "samples": point.samples,
            "eligible": point.eligible,
        }
        for point in series
    ]


def reports_from_series(series: list) -> list:
    """Rebuild LatencyReport points from ``strong_latency_series`` metrics.

    The inverse of :func:`_series_metrics`, for feeding campaign job
    results back into the Figure-7-style table/chart formatters.
    """
    return [
        LatencyReport(
            ratio=point["ratio"],
            level=point["level"],
            mean_latency=point["mean_latency_s"],
            samples=point["samples"],
            eligible=point["eligible"],
        )
        for point in series
    ]


def collect_job_metrics(cluster, spec) -> dict:
    """Aggregate chain/health/message statistics from a finished run."""
    cutoff = spec.duration * spec.cutoff_fraction
    correct = cluster.correct_replicas()
    observers = [
        replica for replica in cluster.observer_replicas()
        if not replica.crashed and replica.replica_id not in cluster.byzantine_ids
    ]
    safety_ok = True
    safety_error = None
    try:
        check_commit_safety(observers)
    except AssertionError as error:
        safety_ok = False
        safety_error = str(error)

    # One oracle pass covers Definition 1 (with t from the spec's fault
    # mix) plus the structural and liveness invariants.
    invariant_violations = check_cluster_invariants(cluster, spec)
    strong_violations = sum(
        1
        for violation in invariant_violations
        if violation.invariant == "definition-1"
    )

    reference = observers[0] if observers else correct[0]
    regular_mean, regular_count = regular_commit_latency(
        cluster, created_before=cutoff
    )
    latency_percentiles = commit_latency_percentiles(
        cluster, (0.5, 0.99), created_before=cutoff
    )
    stats = collect_chain_stats(reference)

    monitor = QCDiversityMonitor(cluster.config.n)
    monitor.observe_chain(
        reference.store, reference.commit_tracker.commit_order
    )
    outcasts = [
        health.replica_id for health in monitor.report() if health.is_outcast()
    ]
    appearance_rates = [
        _round(rate, 4) for rate in monitor.appearance_vector()
    ]

    message_stats = cluster.message_stats()
    per_commit = messages_per_committed_block(cluster)

    # Block-sync subprotocol totals (zeros when sync is disabled).
    sync_totals = {
        "requests": 0,
        "responses_served": 0,
        "responses_applied": 0,
        "invalid_responses": 0,
        "blocks_synced": 0,
        "peer_rotations": 0,
    }
    sync_enabled = False
    for replica in cluster.replicas:
        manager = getattr(replica, "sync", None)
        if manager is None:
            continue
        sync_enabled = True
        for key, value in manager.stats().items():
            sync_totals[key] += value

    # Checkpoint subprotocol totals (zeros when checkpointing is off).
    checkpoint_totals = {
        "checkpoints_signed": 0,
        "certificates_formed": 0,
        "blocks_truncated": 0,
        "snapshots_served": 0,
        "snapshots_installed": 0,
        "invalid_snapshots": 0,
        "peer_rotations": 0,
    }
    checkpoint_enabled = False
    stable_height = 0
    for replica in cluster.replicas:
        manager = getattr(replica, "checkpoint", None)
        if manager is None:
            continue
        checkpoint_enabled = True
        for key, value in manager.stats().items():
            checkpoint_totals[key] += value
        stable_height = max(stable_height, manager.stable_height())
    peak_live_blocks = max(
        (
            replica.store.peak_live_blocks
            for replica in cluster.replicas
            if getattr(replica, "store", None) is not None
        ),
        default=0,
    )

    metrics = {
        "commits": len(reference.commit_tracker.commit_order),
        "rounds": reference.current_round,
        "events": cluster.simulator.events_processed,
        "throughput_txps": _round(throughput_txps(cluster), 3),
        "regular_latency_s": _round(regular_mean),
        "regular_latency_samples": regular_count,
        "regular_latency_p50_s": _round(latency_percentiles[0.5]),
        "regular_latency_p99_s": _round(latency_percentiles[0.99]),
        "strong_latency_series": _series_metrics(cluster, spec),
        "chain": {
            "blocks_total": stats.blocks_total,
            "blocks_committed": stats.blocks_committed,
            "max_round": stats.max_round,
            "skipped_rounds": stats.skipped_rounds,
            "fork_blocks": stats.fork_blocks,
            "max_fork_depth": stats.max_fork_depth,
            "mean_qc_size": _round(stats.mean_qc_size, 3),
            "qc_diversity": _round(stats.qc_diversity, 4),
        },
        "health": {
            "chain_qcs": monitor.qc_count(),
            "max_achievable_strength": monitor.max_achievable_strength(
                cluster.config.resolved_f()
            ),
            "outcasts": outcasts,
            "appearance_rates": appearance_rates,
        },
        "latency_breakdown": breakdown_from_cluster(reference),
        "messages": {
            "sent": message_stats["sent"],
            "delivered": message_stats["delivered"],
            "bytes": message_stats["bytes"],
            "per_commit": (
                None if per_commit == float("inf") else _round(per_commit, 3)
            ),
            "by_type": dict(sorted(message_stats["by_type"].items())),
        },
        "txs": _workload_metrics(cluster, reference),
        "sync": {"enabled": sync_enabled, **sync_totals},
        "checkpoint": {
            "enabled": checkpoint_enabled,
            "stable_height": stable_height,
            "peak_live_blocks": peak_live_blocks,
            **checkpoint_totals,
        },
        "safety_ok": safety_ok,
        "strong_safety_violations": strong_violations,
        "invariants": invariant_report(invariant_violations),
    }
    # Crash-recovery totals only when the schedule is active: the key
    # is absent on default-off runs so committed baselines keep their
    # exact metric shape.
    if getattr(cluster, "durable", None) is not None:
        metrics["recoveries"] = {
            "restarts": cluster.restarts,
            "amnesia_restarts": cluster.amnesia_restarts,
            **cluster.durable.stats(),
        }
    # Likewise the at-least-once delivery counter: present only when
    # the network actually sampled the fault.
    if "duplicated" in message_stats:
        metrics["messages"]["duplicated"] = message_stats["duplicated"]
    if safety_error is not None:
        metrics["safety_error"] = safety_error
    return metrics


def collect_scripted_metrics(spec) -> dict:
    """Run a scripted (non-cluster) scenario and judge it.

    Scripted specs replay hand-built adversarial constructions —
    currently only ``"appendix_c"`` (Figure 9) — under the spec's
    accounting mode, and report through the same metrics shape as
    cluster jobs so campaign/fuzz plumbing handles both uniformly.
    """
    from repro.adversary.scripted import AppendixCScenario

    result = AppendixCScenario(f=spec.resolved_f()).run()
    violations = check_appendix_c(result, naive=spec.naive_accounting)
    # An *unexpected* Definition-1 violation (SFT accounting unsafe on
    # its own construction) is a safety failure; the deliberate naive
    # counterexample is not.
    safety_ok = all(violation.expected for violation in violations)
    return {
        "script": spec.script,
        "commits": 0,
        "regular_latency_s": None,
        "safety_ok": safety_ok,
        "health": {"outcasts": []},
        "messages": {"sent": 0, "delivered": 0, "bytes": 0, "per_commit": None},
        "appendix_c": {
            "f": result.f,
            "naive_main_strength": result.naive_main_strength,
            "naive_fork_strength": result.naive_fork_strength,
            "sft_main_strength": result.sft_main_strength,
            "sft_fork_strength": result.sft_fork_strength,
        },
        "invariants": invariant_report(violations),
    }


def run_job(job) -> dict:
    """Execute one job and return its report entry (picklable dict).

    ``wall_clock_s`` covers the whole job (build + run + analysis);
    ``run_wall_clock_s`` is the simulation loop alone, so the invariant
    oracle's cost never pollutes engine throughput measurements.
    """
    start = time.perf_counter()
    spec = job.spec
    flight_recording = None
    if spec.script:
        metrics = collect_scripted_metrics(spec)
        run_wall_clock = time.perf_counter() - start
    else:
        cluster = spec.build(job.seed)
        run_start = time.perf_counter()
        cluster.run()
        run_wall_clock = time.perf_counter() - run_start
        metrics = collect_job_metrics(cluster, spec)
        violations = metrics.get("invariants", {}).get("violations", [])
        if violations:
            # Outside ``metrics`` on purpose: baselines and fuzz digests
            # compare/hash only the deterministic metrics section.
            flight_recording = collect_flight_recording(cluster, violations)
    wall_clock = time.perf_counter() - start
    entry = {
        "job_id": job.job_id,
        "scenario": spec.name,
        "params": dict(job.params),
        "seed": job.seed,
        "metrics": metrics,
        "wall_clock_s": round(wall_clock, 3),
        "run_wall_clock_s": round(run_wall_clock, 6),
    }
    if flight_recording is not None:
        entry["flight_recording"] = flight_recording
    return entry


def _summarize(results: list) -> dict:
    latencies = [
        entry["metrics"]["regular_latency_s"]
        for entry in results
        if entry["metrics"]["regular_latency_s"] is not None
    ]
    return {
        "total_commits": sum(entry["metrics"]["commits"] for entry in results),
        "mean_regular_latency_s": (
            round(sum(latencies) / len(latencies), 6) if latencies else None
        ),
        "all_safe": all(entry["metrics"]["safety_ok"] for entry in results),
        "all_invariants_ok": all(
            entry["metrics"].get("invariants", {}).get("ok", True)
            for entry in results
        ),
        "jobs_with_outcasts": sum(
            1 for entry in results if entry["metrics"]["health"]["outcasts"]
        ),
    }


class CampaignRunner:
    """Executes a job list, serially or over a process pool."""

    def __init__(self, jobs: list, workers: int = 1, name: str = "campaign"):
        self.jobs = list(jobs)
        self.workers = max(1, workers)
        self.name = name

    def run(self, progress=None) -> dict:
        """Run every job; returns the aggregate campaign report.

        ``progress`` is an optional callable invoked with each finished
        job entry (serial mode reports as it goes; parallel mode as
        ordered results arrive).
        """
        start = time.perf_counter()
        if self.workers == 1 or len(self.jobs) <= 1:
            results = []
            for job in self.jobs:
                entry = run_job(job)
                if progress is not None:
                    progress(entry)
                results.append(entry)
        else:
            with multiprocessing.Pool(processes=self.workers) as pool:
                results = []
                for entry in pool.imap(run_job, self.jobs, chunksize=1):
                    if progress is not None:
                        progress(entry)
                    results.append(entry)
        wall_clock = time.perf_counter() - start
        return {
            "campaign": self.name,
            "workers": self.workers,
            "job_count": len(results),
            "wall_clock_s": round(wall_clock, 3),
            "jobs": results,
            "summary": _summarize(results),
        }


def run_campaign(campaign: Campaign, workers: int = 1, progress=None) -> dict:
    """Expand and execute a :class:`Campaign` in one call."""
    runner = CampaignRunner(
        campaign.expand(), workers=workers, name=campaign.name
    )
    return runner.run(progress=progress)
