"""Deterministic discrete-event simulator.

A single priority queue of ``(time, seq, callback)`` entries; ``seq``
is a monotonically increasing tie-breaker so same-time events run in
schedule order, making every run fully deterministic for a fixed seed.

Simulated time is a float in seconds.  The simulator knows nothing
about replicas or messages — the network layer and the cluster runtime
schedule closures on it.

Cancelled timers do not linger: the heap is compacted whenever
cancelled entries outnumber live ones, so pacemaker-heavy runs that
cancel a timer per round keep memory proportional to the *live* event
count, and :meth:`Simulator.pending` reports live events only.
"""

from __future__ import annotations

import heapq


class TimerHandle:
    """Cancellation token for a scheduled event."""

    __slots__ = ("cancelled", "_simulator", "_queued")

    def __init__(self, simulator: "Simulator | None" = None) -> None:
        self.cancelled = False
        self._simulator = simulator
        self._queued = simulator is not None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._queued and self._simulator is not None:
            self._simulator._note_cancellation()


#: Shared handle for fire-and-forget events (network deliveries).  It
#: is never cancelled and never reports back to a simulator, so one
#: immortal instance serves every :meth:`Simulator.schedule_fire` entry
#: — the per-message TimerHandle allocation disappears from the hot
#: path.  Heap entries keep the exact ``(time, seq, handle, callback,
#: args)`` tuple layout, and ``(time, seq)`` stays a unique sort key,
#: so event order is byte-identical to cancellable scheduling.
_FIRE_HANDLE = TimerHandle()


class Simulator:
    """Event loop over simulated time."""

    def __init__(self) -> None:
        self._queue: list = []
        self._seq = 0
        self._cancelled = 0
        self.now = 0.0
        self.events_processed = 0

    def schedule_at(self, time: float, callback, *args) -> TimerHandle:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        handle = TimerHandle(self)
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, handle, callback, args))
        return handle

    def schedule_fire(self, time: float, callback, *args) -> None:
        """Fire-and-forget :meth:`schedule_at`: no cancellation handle.

        For events that are never cancelled (message deliveries); skips
        the per-event TimerHandle allocation while preserving the
        identical ``(time, seq)`` ordering.
        """
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, _FIRE_HANDLE, callback, args))

    def schedule_in(self, delay: float, callback, *args) -> TimerHandle:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.now + delay, callback, *args)

    def pending(self) -> int:
        """Number of live (non-cancelled) queued events."""
        return len(self._queue) - self._cancelled

    def _note_cancellation(self) -> None:
        """Called by a handle on first cancel while still queued."""
        self._cancelled += 1
        if self._cancelled * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and restore the heap invariant."""
        live = []
        for entry in self._queue:
            handle = entry[2]
            if handle.cancelled:
                handle._queued = False
            else:
                live.append(entry)
        self._queue = live
        heapq.heapify(self._queue)
        self._cancelled = 0

    def _pop(self):
        """Pop the head entry, maintaining the cancelled count."""
        entry = heapq.heappop(self._queue)
        handle = entry[2]
        handle._queued = False
        if handle.cancelled:
            self._cancelled -= 1
        return entry

    def step(self) -> bool:
        """Run the next event; returns False when the queue is empty."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            time, _seq, handle, callback, args = pop(queue)
            handle._queued = False
            if handle.cancelled:
                self._cancelled -= 1
                continue
            self.now = time
            self.events_processed += 1
            callback(*args)
            return True
        return False

    def run_until(self, deadline: float) -> None:
        """Run events with ``time <= deadline``; leaves ``now = deadline``.

        Events scheduled exactly at the deadline do run.
        """
        while self._queue:
            time, _seq, handle, _callback, _args = self._queue[0]
            if time > deadline:
                break
            if handle.cancelled:
                self._pop()
                continue
            self.step()
        if self.now < deadline:
            self.now = deadline

    def run_until_idle(self, max_events: int | None = None) -> int:
        """Drain the queue; returns the number of events executed.

        ``max_events`` guards against livelock in tests of misbehaving
        protocols (e.g. a pacemaker that keeps timing out forever).
        """
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        return executed
