"""Trace exporter: Chrome trace-event JSON (Perfetto).

:func:`chrome_trace` converts a :class:`~repro.obs.trace.TraceLog`
into the Chrome trace-event JSON object format — load the file at
https://ui.perfetto.dev (or chrome://tracing) to get one named track
per replica with every lifecycle span as an instant event, plus
complete ("X") events for the per-block proposal→QC and QC→commit
phases on the reference replica's track.  Timestamps are microseconds
of simulated time.

:func:`validate_chrome_trace` checks the structural schema (used by
tests and the CI trace-smoke step).
"""

from __future__ import annotations

from repro.obs.phases import breakdown_from_trace
from repro.obs.trace import TraceLog

_PID = 1  # one process: the simulated cluster


def _metadata_events(replica_ids) -> list:
    events = []
    for replica_id in replica_ids:
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": replica_id,
            "args": {"name": f"replica {replica_id}"},
        })
        events.append({
            "name": "thread_sort_index",
            "ph": "M",
            "pid": _PID,
            "tid": replica_id,
            "args": {"sort_index": replica_id},
        })
    return events


def _instant_event(event) -> dict:
    name = event.kind if event.round < 0 else f"{event.kind} r{event.round}"
    args: dict = {}
    if event.round >= 0:
        args["round"] = event.round
    if event.height >= 0:
        args["height"] = event.height
    if event.block:
        args["block"] = event.block
    if event.detail:
        args["detail"] = event.detail
    if event.value:
        args["value"] = round(event.value, 9)
    if event.count:
        args["count"] = event.count
    return {
        "name": name,
        "cat": event.kind,
        "ph": "i",
        "s": "t",
        "ts": round(event.time * 1e6, 3),
        "pid": _PID,
        "tid": event.replica_id,
        "args": args,
    }


def _lifecycle_spans(log: TraceLog, replica_id: int) -> list:
    """Per-block phase spans ("X" events) on one replica's track."""
    propose_times: dict = {}
    for event in log.events(kind="propose"):
        propose_times.setdefault(event.block, event.time)
    qc_times: dict = {}
    for event in log.events(kind="qc", replica_id=replica_id):
        qc_times.setdefault(event.block, event.time)
    spans = []
    seen: set = set()
    for event in log.events(kind="commit", replica_id=replica_id):
        if event.block in seen or event.height == 0:
            continue
        seen.add(event.block)
        qc_time = qc_times.get(event.block)
        proposed = propose_times.get(event.block)
        if proposed is not None and qc_time is not None and qc_time > proposed:
            spans.append({
                "name": f"propose→qc {event.block}",
                "cat": "lifecycle",
                "ph": "X",
                "ts": round(proposed * 1e6, 3),
                "dur": round((qc_time - proposed) * 1e6, 3),
                "pid": _PID,
                "tid": replica_id,
                "args": {"block": event.block, "round": event.round},
            })
        if qc_time is not None and event.time > qc_time:
            spans.append({
                "name": f"qc→commit {event.block}",
                "cat": "lifecycle",
                "ph": "X",
                "ts": round(qc_time * 1e6, 3),
                "dur": round((event.time - qc_time) * 1e6, 3),
                "pid": _PID,
                "tid": replica_id,
                "args": {"block": event.block, "round": event.round},
            })
    return spans


def chrome_trace(log: TraceLog, reference_replica: int = 0) -> dict:
    """Render the span log as a Chrome trace-event JSON object."""
    replica_ids = sorted({event.replica_id for event in log.events()})
    events = _metadata_events(replica_ids)
    for event in log.events():
        events.append(_instant_event(event))
    events.extend(_lifecycle_spans(log, reference_replica))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "reference_replica": reference_replica,
            "replicas": len(replica_ids),
            "recorded_events": len(log),
            "dropped_events": log.dropped,
            "latency_breakdown": breakdown_from_trace(log, reference_replica),
        },
    }


def validate_chrome_trace(data) -> list:
    """Structural schema check; returns a list of problems (empty = ok)."""
    problems = []
    if not isinstance(data, dict):
        return ["top level must be a JSON object"]
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in ("M", "i", "X"):
            problems.append(f"{where}: unexpected ph {phase!r}")
            continue
        for key in ("name", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant scope {event.get('s')!r}")
    return problems
