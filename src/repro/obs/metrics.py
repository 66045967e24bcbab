"""Lightweight per-replica metrics registry.

Every replica owns a :class:`MetricsRegistry`; protocol code,
:class:`~repro.sync.manager.SyncManager`, and
:class:`~repro.sync.checkpoint.CheckpointManager` register named
:class:`Counter` instruments into it instead of keeping ad-hoc integer
attributes.

Snapshots are deterministic: counters are emitted sorted by name, so
two runs of the same seed produce byte-identical snapshot JSON.
"""

from __future__ import annotations


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class MetricsRegistry:
    """Named counters with get-or-create semantics.

    Re-requesting a name returns the existing counter (so, e.g., a
    replica and its sync manager can share one counter).
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = Counter(name)
        return instrument

    def snapshot(self) -> dict:
        """Deterministic ``{name: value}``, sorted by name."""
        return {
            name: self._instruments[name].value
            for name in sorted(self._instruments)
        }
