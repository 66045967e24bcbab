"""Structured causal lifecycle tracing.

Debugging a BFT protocol means asking "what did replica 7 see at
t = 3.2, and why did this commit take four rounds?".  This module
answers it with structured events instead of free-form strings: every
block moves through the span chain ``proposed → votes_collected →
qc_formed → endorsed(level) → committed`` and each step lands in the
shared :class:`TraceLog` as a :class:`TraceEvent` carrying the round,
height, block id, replica id, and simulated time.

Two sinks consume events:

* the cluster-wide span log (``trace_level`` = ``"spans"`` or
  ``"full"``) — bounded, queryable, exportable to Chrome trace-event
  JSON (:mod:`repro.obs.export`);
* the per-replica flight-recorder ring (:mod:`repro.obs.flight`) —
  always on unless ``flight_recorder`` is disabled, dumped when the
  invariant oracle reports a violation.

The per-replica :class:`Tracer` fans each event out to whichever sinks
exist; replicas guard every emit site with ``if self.tracer is not
None`` so fully-disabled runs pay a single attribute load.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

#: Valid values of the ``trace_level`` knob.  ``"off"`` keeps runs
#: byte-identical to pre-observability builds; ``"spans"`` records the
#: lifecycle span chain; ``"full"`` adds a per-message deliver event.
TRACE_LEVELS = ("off", "spans", "full")


@dataclass(slots=True)
class TraceEvent:
    """One structured observation at one replica.

    ``round``/``height`` are -1 and ``block`` empty when the event has
    no block context (e.g. a round entry or a sync request).  ``value``
    and ``count`` carry kind-specific payloads: endorse level for
    ``endorse`` events, summed mempool wait + transaction count for
    ``propose`` events, vote/block counts elsewhere.
    """

    time: float
    replica_id: int
    kind: str
    round: int = -1
    height: int = -1
    block: str = ""
    detail: str = ""
    value: float = 0.0
    count: int = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        where = f"r{self.round}" if self.round >= 0 else ""
        block = f" {self.block}" if self.block else ""
        return (
            f"[{self.time:9.4f}] replica {self.replica_id:<3} "
            f"{self.kind:<16} {where}{block} {self.detail}"
        )


def event_to_dict(event: TraceEvent) -> dict:
    """A compact JSON-friendly rendering (defaults omitted)."""
    out: dict = {
        "t": round(event.time, 9),
        "replica": event.replica_id,
        "kind": event.kind,
    }
    if event.round >= 0:
        out["round"] = event.round
    if event.height >= 0:
        out["height"] = event.height
    if event.block:
        out["block"] = event.block
    if event.detail:
        out["detail"] = event.detail
    if event.value:
        out["value"] = round(event.value, 9)
    if event.count:
        out["count"] = event.count
    return out


class TraceLog:
    """Bounded in-memory event log shared by all replicas of a cluster.

    Memory stays O(capacity): once full, every append evicts the oldest
    event and increments ``dropped`` — the count is exact across any
    number of wraps.  A per-kind index makes ``events(kind=...)``
    queries O(matching events) instead of a full scan.
    """

    __slots__ = ("capacity", "dropped", "_events", "_by_kind")

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.dropped = 0
        self._events: deque = deque()
        self._by_kind: dict[str, deque] = {}

    def append(self, event: TraceEvent) -> None:
        events = self._events
        events.append(event)
        by_kind = self._by_kind
        index = by_kind.get(event.kind)
        if index is None:
            index = by_kind[event.kind] = deque()
        index.append(event)
        if len(events) > self.capacity:
            evicted = events.popleft()
            self._by_kind[evicted.kind].popleft()
            self.dropped += 1

    def __len__(self) -> int:
        return len(self._events)

    def events(self, kind: str | None = None, replica_id: int | None = None,
               since: float = 0.0) -> list:
        """Filtered events in chronological order.

        A ``kind`` filter walks only that kind's index; events of one
        kind are appended in time order, so chronology is preserved.
        """
        source = self._events if kind is None else self._by_kind.get(kind, ())
        return [
            event
            for event in source
            if (replica_id is None or event.replica_id == replica_id)
            and event.time >= since
        ]


class Tracer:
    """Per-replica emit facade fanning out to the active sinks.

    ``span_log`` is the cluster-wide :class:`TraceLog` (None when
    ``trace_level`` is off); ``flight`` is the replica's flight
    recorder ring (None when disabled).  A replica's ``tracer``
    attribute is None iff both sinks are absent — that one check is
    the entire disabled-path cost.
    """

    __slots__ = ("replica_id", "span_log", "flight", "level", "full")

    def __init__(self, replica_id: int, span_log: TraceLog | None = None,
                 flight=None, level: str = "off") -> None:
        self.replica_id = replica_id
        self.span_log = span_log
        self.flight = flight
        self.level = level
        self.full = level == "full"

    def emit(self, time: float, kind: str, *, round: int = -1,
             height: int = -1, block: str = "", detail: str = "",
             value: float = 0.0, count: int = 0) -> None:
        span_log = self.span_log
        if span_log is None:
            # Flight-only (the default configuration): the ring stores
            # the raw field tuple and materializes TraceEvents lazily
            # at dump time, keeping the always-on path cheap.
            self.flight.append(
                (time, self.replica_id, kind, round, height, block,
                 detail, value, count)
            )
            return
        event = TraceEvent(
            time=time, replica_id=self.replica_id, kind=kind, round=round,
            height=height, block=block, detail=detail, value=value,
            count=count,
        )
        span_log.append(event)
        if self.flight is not None:
            self.flight.append(event)
