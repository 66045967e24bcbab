"""Strength levels, ratio grids, and per-block strength timelines.

A block is *x-strong committed* when it tolerates ``x`` Byzantine
faults (Definition 1); ``x`` ranges over ``[f, 2f]``.  The evaluation
(Figure 7) reports latency at ratios ``x/f ∈ {1.0, 1.1, …, 2.0}``; we
translate a ratio to the absolute level ``ceil(ratio · f)`` — the
smallest integer strength that survives at least ratio·f faults.
"""

from __future__ import annotations

import math
from repro.types.block import Block


def max_strength(f: int) -> int:
    """The strongest achievable commit level, ``2f``."""
    return 2 * f


def level_for_ratio(ratio: float, f: int) -> int:
    """Absolute strength level for a paper-style ratio like ``1.4``.

    Uses ``floor`` — the paper's convention: with ``f = 33`` it calls
    ``x = 56 = 2f - 10`` "1.7f" (Section 4.1, asymmetric setting), so a
    ratio label denotes the largest integer strength not exceeding
    ``ratio·f``.  A tiny epsilon guards against float artifacts
    (``1.7 * 33 = 56.09999…``).
    """
    return math.floor(ratio * f + 1e-9)


def ratio_grid(start: float = 1.0, stop: float = 2.0, step: float = 0.1) -> tuple:
    """The x-axis of Figure 7: ratios from ``start`` to ``stop``."""
    count = int(round((stop - start) / step)) + 1
    return tuple(round(start + i * step, 10) for i in range(count))


class StrengthTimeline:
    """First-reach times of every strength level for one block.

    Levels are recorded densely (every integer from ``f`` up to the
    current strength), so ``first_reached(level)`` is an O(1) lookup.
    """

    __slots__ = ("block", "current", "first_reach")

    def __init__(self, block: Block) -> None:
        self.block = block
        self.current = -1
        self.first_reach: dict[int, float] = {}

    def raise_to(self, level: int, now: float) -> bool:
        """Record that strength reached ``level`` at time ``now``.

        Returns True if the level increased.  Every intermediate level
        is stamped with the same time (strength jumps when a straggler's
        strong-vote lands in a QC, Section 4.1).
        """
        if level <= self.current:
            return False
        start = self.current + 1 if self.current >= 0 else 0
        for intermediate in range(start, level + 1):
            self.first_reach.setdefault(intermediate, now)
        self.current = level
        return True

    def first_reached(self, level: int) -> float | None:
        """Time the block first became ``level``-strong, or None."""
        return self.first_reach.get(level)

    def latency_to(self, level: int) -> float | None:
        """Creation-to-level latency (what Figures 7 and 8 plot)."""
        reached = self.first_reach.get(level)
        if reached is None:
            return None
        return reached - self.block.created_at
