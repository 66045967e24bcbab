"""Flight recorder: always-on per-replica event rings, dumped on failure.

Every replica keeps the last ``capacity`` trace events in a cheap ring
buffer regardless of ``trace_level`` (disable with the
``flight_recorder`` knob).  The ring never influences behaviour or
metrics, so the default-on recorder preserves byte-identical campaign
and bench baselines.  When the invariant oracle reports a violation —
in a campaign job, a fuzz case, or a CLI replay — the rings of every
replica are serialized into a JSON artifact, so a shrunk corpus entry
ships with an execution explanation: the final actions of each replica
leading into the violation.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from repro.obs.trace import TraceEvent, event_to_dict


class FlightRecorder:
    """A bounded ring of the most recent trace events at one replica.

    Entries are either :class:`TraceEvent` instances (when the span log
    shares the constructed event) or raw field tuples (the flight-only
    fast path in :meth:`Tracer.emit <repro.obs.trace.Tracer.emit>`);
    :meth:`events` materializes the tuples on the way out.
    """

    __slots__ = ("capacity", "dropped", "_ring")

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self.dropped = 0
        self._ring: deque = deque(maxlen=capacity)

    def append(self, entry) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(entry)

    def events(self) -> list:
        return [
            entry if isinstance(entry, TraceEvent) else TraceEvent(*entry)
            for entry in self._ring
        ]


def collect_flight_recording(cluster, violations=()) -> dict | None:
    """Serialize every replica's flight ring into one JSON-able dict.

    Returns None when no replica carries a recorder (``flight_recorder``
    off everywhere), so callers can skip attaching an empty artifact.
    """
    replicas = {}
    for replica in cluster.replicas:
        tracer = getattr(replica, "tracer", None)
        flight = getattr(tracer, "flight", None)
        if flight is None:
            continue
        replicas[str(replica.replica_id)] = {
            "crashed": replica.crashed,
            "current_round": getattr(replica, "current_round", -1),
            "commits": len(replica.commit_tracker.commit_order),
            "dropped": flight.dropped,
            "events": [event_to_dict(event) for event in flight.events()],
        }
    if not replicas:
        return None
    return {
        "sim_time": round(cluster.simulator.now, 9),
        "violations": [
            violation.to_dict() if hasattr(violation, "to_dict") else violation
            for violation in violations
        ],
        "replicas": replicas,
    }


def write_flight_dump(recording: dict, path) -> Path:
    """Write one flight recording as a deterministic JSON artifact."""
    path = Path(path)
    path.write_text(
        json.dumps(recording, indent=2, sort_keys=True) + "\n"
    )
    return path
