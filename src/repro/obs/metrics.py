"""Lightweight per-replica metrics registry.

Every replica owns a :class:`MetricsRegistry`; protocol code,
:class:`~repro.sync.manager.SyncManager`, and
:class:`~repro.sync.checkpoint.CheckpointManager` register named
instruments into it instead of keeping ad-hoc integer attributes.
Three instrument kinds cover the repo's needs:

* :class:`Counter` — monotonically increasing event count (``inc``);
* :class:`Gauge` — a point-in-time level (``set``);
* :class:`Histogram` — fixed logarithmic buckets plus count/sum/min/max
  (``observe``), cheap enough for hot paths.

Snapshots are deterministic: instruments are emitted sorted by name
with plain-float values, so two runs of the same seed produce
byte-identical snapshot JSON.
"""

from __future__ import annotations

import math


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level (e.g. live blocks, mempool depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed logarithmic buckets with count/sum/min/max.

    Bucket ``i`` counts observations in ``(base**(i-1) * scale,
    base**i * scale]``; observations at or below ``scale`` land in
    bucket 0.  The defaults (scale 1 ms, base 2, 24 buckets) span
    1 ms .. ~2.3 hours of simulated latency.
    """

    __slots__ = ("name", "scale", "base", "buckets", "count", "sum",
                 "min", "max", "_log_base")

    def __init__(
        self,
        name: str,
        scale: float = 0.001,
        base: float = 2.0,
        bucket_count: int = 24,
    ) -> None:
        self.name = name
        self.scale = scale
        self.base = base
        self.buckets = [0] * bucket_count
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._log_base = math.log(base)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value <= self.scale:
            index = 0
        else:
            index = min(
                len(self.buckets) - 1,
                1 + int(math.log(value / self.scale) / self._log_base),
            )
        self.buckets[index] += 1

    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    Re-requesting a name returns the existing instrument (so, e.g., a
    replica and its sync manager can share one counter); requesting a
    name registered as a different kind raises.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[str, object] = {}

    def _get_or_create(self, name: str, kind, *args, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, *args, **kwargs)
            self._instruments[name] = instrument
        elif type(instrument) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, **kwargs) -> Histogram:
        return self._get_or_create(name, Histogram, **kwargs)

    def get(self, name: str):
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def snapshot(self) -> dict:
        """Deterministic ``{name: value-or-summary}``, sorted by name."""
        out: dict = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                out[name] = instrument.value
            elif isinstance(instrument, Gauge):
                out[name] = instrument.value
            else:
                out[name] = {
                    "count": instrument.count,
                    "sum": round(instrument.sum, 9),
                    "min": instrument.min,
                    "max": instrument.max,
                    "buckets": list(instrument.buckets),
                }
        return out
