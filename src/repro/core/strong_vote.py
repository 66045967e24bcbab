"""Voting history, markers, and generalized endorsement intervals.

Figure 4: when voting for block ``B``, a replica attaches
``marker = max{B'.round | B' conflicts B and replica voted for B'}``
(``0`` by default).  SFT-Streamlet (Figure 11) uses heights instead of
rounds.  Section 3.4 generalizes the marker to the interval set
``I = [1, r] \\ (∪_F D_F)`` with ``D_F = [r_l + 1, r_h]`` per fork
``F``: ``r_h`` the largest round voted on ``F`` among blocks
conflicting with ``B`` and ``r_l`` the round of the common ancestor.

:class:`VotingHistory` implements both, maintaining — exactly as the
protocol description requires ("for every fork in the blockchain, the
replica additionally keeps the highest voted block on that fork") — the
set of *voted tips*: voted blocks that are not ancestors of other voted
blocks.  Tips suffice for both computations:

* any voted block ``V`` conflicting with ``B`` satisfies ``V ⪯ T`` for
  some tip ``T``; if ``T`` were an ancestor of ``B`` then so would be
  ``V`` — contradiction — hence ``T`` conflicts with ``B`` and has key
  (round/height) ≥ ``V``'s, so the max over conflicting tips equals the
  max over all conflicting voted blocks;
* the fork interval ``D_F`` of the paper is exactly
  ``[key(common_ancestor(B, T)) + 1, key(T)]`` for the conflicting tip
  ``T`` of that fork.
"""

from __future__ import annotations

from repro.core.intervals import IntervalSet
from repro.types.block import Block, BlockId
from repro.types.chain import BlockStore


def _key_of(block: Block, mode: str) -> int:
    return block.round if mode == "round" else block.height


class VotingHistory:
    """Tracks every block one replica voted for and derives markers.

    ``mode`` is ``"round"`` for SFT-DiemBFT or ``"height"`` for
    SFT-Streamlet.
    """

    def __init__(self, store: BlockStore, mode: str = "round") -> None:
        if mode not in ("round", "height"):
            raise ValueError("mode must be 'round' or 'height'")
        self._store = store
        self._mode = mode
        self._tips: list[BlockId] = []
        self.highest_voted_round = 0
        # Crash-recovery: tips reloaded from the WAL as (id, key) pairs.
        # Their blocks may be absent from the fresh post-restart store,
        # so they are kept separately with their fsync-time keys and
        # treated conservatively (see marker_for / intervals_for).
        self._restored: dict[BlockId, int] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def record_vote(self, block: Block) -> None:
        """Record that the replica voted for ``block``.

        Maintains the tip set: tips that ``block`` extends are absorbed
        by ``block``.
        """
        block_id = block.id()
        self.highest_voted_round = max(self.highest_voted_round, block.round)
        surviving = [
            tip
            for tip in self._tips
            if not self._store.is_ancestor(tip, block_id)
        ]
        surviving.append(block_id)
        self._tips = surviving
        if self._restored:
            # A restored tip the new vote demonstrably extends is
            # absorbed exactly like a live tip; unknown-lineage tips
            # stay (conservatively treated as conflicting).
            self._restored = {
                tip: key
                for tip, key in self._restored.items()
                if not (
                    tip in self._store
                    and self._store.is_ancestor(tip, block_id)
                )
            }

    def tip_keys(self) -> tuple:
        """The tip set as durable ``(block_id, key)`` pairs — what the
        WAL persists so markers survive a crash."""
        live = tuple(
            (tip, _key_of(self._store.get(tip), self._mode))
            for tip in self._tips
        )
        return live + tuple(self._restored.items())

    def restore(self, entries, highest_voted_round: int) -> None:
        """Crash-recovery seam: reload WAL ``(block_id, key)`` tips.

        Restored tips whose blocks the fresh store does not (yet) know
        cannot be placed in the chain, so they contribute their full
        fsync-time key to every marker — the safe direction: an
        inflated marker endorses *fewer* rounds, never more.
        """
        for tip, key in entries:
            self._restored[tip] = max(self._restored.get(tip, 0), key)
        self.highest_voted_round = max(
            self.highest_voted_round, highest_voted_round
        )

    def forget_pruned(self, pruned) -> None:
        """Drop voted blocks removed by checkpoint truncation.

        Pruned blocks lie strictly below (or on forks abandoned below)
        the stable checkpoint, which carries a 2f+1 commit certificate;
        conflicts with them can no longer affect any live block, so —
        exactly like PBFT discarding pre-checkpoint log entries — their
        marker contribution is safely forgotten.
        """
        self._tips = [tip for tip in self._tips if tip not in pruned]
        for block_id in pruned:
            self._restored.pop(block_id, None)

    # ------------------------------------------------------------------
    # marker (Section 3.2 / Figure 4, Figure 11)
    # ------------------------------------------------------------------

    def marker_for(self, block: Block) -> int:
        """Marker to attach when voting for ``block`` (0 when fork-free)."""
        block_id = block.id()
        marker = 0
        for tip in self._tips:
            if self._store.conflicts(tip, block_id):
                marker = max(marker, _key_of(self._store.get(tip), self._mode))
        for tip, key in self._restored.items():
            if tip in self._store:
                if self._store.conflicts(tip, block_id):
                    marker = max(marker, key)
            else:
                # Unknown lineage: assume the worst (a conflict) so the
                # post-restart marker never under-reports.
                marker = max(marker, key)
        return marker

    # ------------------------------------------------------------------
    # generalized intervals (Section 3.4)
    # ------------------------------------------------------------------

    def intervals_for(self, block: Block, window: int | None = None) -> IntervalSet:
        """Endorsed-round intervals ``I`` for a vote on ``block``.

        ``window = n`` restricts to the paper's "last n rounds" variant
        ``I = [r - n, r] \\ (∪_F D_F)``; ``None`` uses the full
        ``[1, r]`` range.  Genesis (key 0) is never part of ``I`` —
        the genesis block needs no endorsement.
        """
        block_id = block.id()
        r = _key_of(block, self._mode)
        lo = 1 if window is None else max(1, r - window)
        base = IntervalSet.single(lo, r)
        excluded = []
        for tip in self._tips:
            if not self._store.conflicts(tip, block_id):
                continue
            tip_block = self._store.get(tip)
            ancestor = self._store.common_ancestor(block_id, tip)
            r_l = _key_of(ancestor, self._mode)
            r_h = _key_of(tip_block, self._mode)
            excluded.append((r_l + 1, r_h))
        for tip, key in self._restored.items():
            if tip in self._store:
                if not self._store.conflicts(tip, block_id):
                    continue
                ancestor = self._store.common_ancestor(block_id, tip)
                excluded.append((_key_of(ancestor, self._mode) + 1, key))
            else:
                # Unknown lineage after a restart: exclude the whole
                # prefix up to the fsync-time key (never over-endorse).
                excluded.append((1, key))
        return base.subtract(IntervalSet.from_pairs(excluded))
