"""Aggregated measurements over a finished cluster run.

Implements the paper's methodology (Section 4): "each data point is
the average value measured over all blocks over all replicas".  The
helpers here average over *observer* replicas (which may be all of
them) and support a ``created_before`` cutoff so that blocks created
too close to the end of the run — which never had time to reach high
strength levels — do not bias the tail of the latency curves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.resilience import level_for_ratio


@dataclass(slots=True)
class LatencyReport:
    """One point of a Figure 7/8-style series."""

    ratio: float
    level: int
    mean_latency: float | None
    samples: int
    eligible: int


def _eligible_commits(replica, created_before):
    """Non-genesis commit events, read off the events themselves so
    blocks checkpoint truncation pruned still count."""
    for event in replica.commit_tracker.commit_order:
        if event.height == 0:
            continue
        if created_before is not None and event.created_at > created_before:
            continue
        yield event


def regular_commit_latency(cluster, created_before: float | None = None):
    """Mean creation-to-commit latency over all blocks over observers."""
    total = 0.0
    count = 0
    for replica in cluster.observer_replicas():
        if replica.crashed:
            continue
        for event in _eligible_commits(replica, created_before):
            total += event.latency()
            count += 1
    return (total / count if count else None), count


def strong_commit_latency(
    cluster, level: int, created_before: float | None = None, observers=None
) -> tuple:
    """Mean creation-to-``level``-strong latency; returns (mean, n, eligible).

    ``observers`` restricts the average to those replica ids (default:
    every observer the spec names).
    """
    total = 0.0
    count = 0
    eligible = 0
    for replica in cluster.observer_replicas(observers):
        if replica.crashed:
            continue
        tracker = replica.commit_tracker
        for event in _eligible_commits(replica, created_before):
            eligible += 1
            timeline = tracker.timeline_of(event.block_id)
            if timeline is None:
                continue
            latency = timeline.latency_to(level)
            if latency is None:
                continue
            total += latency
            count += 1
    return (total / count if count else None), count, eligible


def strong_latency_series(
    cluster,
    ratios,
    created_before: float | None = None,
    observers=None,
) -> list:
    """A full Figure-7-style series: one LatencyReport per ratio."""
    f = cluster.config.resolved_f()
    series = []
    for ratio in ratios:
        level = level_for_ratio(ratio, f)
        mean, count, eligible = strong_commit_latency(
            cluster, level, created_before, observers
        )
        series.append(
            LatencyReport(
                ratio=ratio,
                level=level,
                mean_latency=mean,
                samples=count,
                eligible=eligible,
            )
        )
    return series


def percentile(samples, quantile: float) -> float | None:
    """Deterministic nearest-rank percentile of ``samples``.

    Sorted-sample nearest-rank (``ceil(q·n)``-th value, 1-indexed):
    no interpolation, so the result is always an actual sample and the
    computation is byte-stable across platforms and worker counts.
    Returns ``None`` on empty input.  ``quantile`` must lie in
    ``(0, 1]``: values outside would silently clamp to the minimum or
    maximum sample, which is never what the caller meant.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile!r}")
    if not samples:
        return None
    ordered = sorted(samples)
    rank = -(-len(ordered) * quantile // 1)  # ceil without math
    return ordered[min(len(ordered), int(rank)) - 1]


def commit_latency_percentiles(
    cluster, quantiles=(0.5, 0.99), created_before: float | None = None
) -> dict:
    """Creation-to-commit latency percentiles over observer commits.

    Returns ``{quantile: latency_or_None}`` over the same eligible
    block set :func:`regular_commit_latency` averages.
    """
    samples = []
    for replica in cluster.observer_replicas():
        if replica.crashed:
            continue
        for event in _eligible_commits(replica, created_before):
            samples.append(event.latency())
    return {quantile: percentile(samples, quantile) for quantile in quantiles}


def throughput_txps(cluster, duration: float | None = None) -> float:
    """Committed transactions per second, averaged over observers."""
    horizon = duration if duration is not None else cluster.simulator.now
    if horizon <= 0:
        return 0.0
    observers = [r for r in cluster.observer_replicas() if not r.crashed]
    if not observers:
        return 0.0
    total = sum(replica.commit_tracker.committed_txs for replica in observers)
    return total / len(observers) / horizon


def messages_per_committed_block(cluster) -> float:
    """Network messages divided by distinct committed blocks (E5)."""
    observers = [r for r in cluster.observer_replicas() if not r.crashed]
    if not observers:
        return float("inf")
    blocks = max(len(replica.commit_tracker.commit_order) for replica in observers)
    if blocks == 0:
        return float("inf")
    return cluster.network.messages_sent / blocks
