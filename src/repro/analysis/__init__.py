"""Result analysis and paper-style reporting."""

from repro.analysis.ascii_chart import line_chart
from repro.analysis.chain_stats import ChainStats, collect_chain_stats
from repro.analysis.health import QCDiversityMonitor, ReplicaHealth
from repro.analysis.invariants import (
    InvariantViolation,
    check_appendix_c,
    check_cluster_invariants,
    invariant_report,
)
from repro.analysis.report import (
    format_campaign_table,
    format_fig7_table,
    format_series_csv,
    format_simple_table,
)

__all__ = [
    "line_chart",
    "format_campaign_table",
    "format_fig7_table",
    "format_series_csv",
    "format_simple_table",
    "ChainStats",
    "collect_chain_stats",
    "QCDiversityMonitor",
    "ReplicaHealth",
    "InvariantViolation",
    "check_appendix_c",
    "check_cluster_invariants",
    "invariant_report",
]
