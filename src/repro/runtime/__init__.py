"""Experiment runtime: cluster construction, workload, and metrics."""

from repro.runtime.client import Mempool
from repro.runtime.cluster import Cluster
from repro.runtime.config import build_cluster
from repro.runtime.conflict_policy import ConflictAwareMempool
from repro.runtime.metrics import (
    LatencyReport,
    regular_commit_latency,
    strong_commit_latency,
    strong_latency_series,
    throughput_txps,
)
from repro.obs import TraceLog

__all__ = [
    "build_cluster",
    "Cluster",
    "Mempool",
    "ConflictAwareMempool",
    "TraceLog",
    "LatencyReport",
    "regular_commit_latency",
    "strong_commit_latency",
    "strong_latency_series",
    "throughput_txps",
]
