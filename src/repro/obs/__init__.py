"""Unified observability layer: metrics, lifecycle tracing, flight
recorder, and exporters.

See :mod:`repro.obs.metrics` (per-replica instrument registry),
:mod:`repro.obs.trace` (structured span chain + bounded TraceLog),
:mod:`repro.obs.flight` (always-on crash rings dumped on invariant
violations), :mod:`repro.obs.phases` (per-phase latency decomposition),
and :mod:`repro.obs.export` (Perfetto / Chrome trace-event JSON).
"""

from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.obs.flight import (
    FlightRecorder,
    collect_flight_recording,
    write_flight_dump,
)
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.phases import breakdown_from_cluster, breakdown_from_trace
from repro.obs.trace import TRACE_LEVELS, TraceEvent, TraceLog, Tracer

__all__ = [
    "TRACE_LEVELS",
    "Counter",
    "FlightRecorder",
    "MetricsRegistry",
    "TraceEvent",
    "TraceLog",
    "Tracer",
    "breakdown_from_cluster",
    "breakdown_from_trace",
    "chrome_trace",
    "collect_flight_recording",
    "validate_chrome_trace",
    "write_flight_dump",
]
