"""Incremental endorsement accounting — the heart of SFT.

Endorsement definition (Figure 4): a strong-vote
``⟨vote, B', r', marker⟩_i`` *endorses* a round-``r`` block ``B`` iff
``B = B'``, or ``B'`` extends ``B`` and ``marker < r``.  Appendix D
(Figure 11) replaces rounds by heights and parameterizes the threshold:
the vote *k-endorses* ``B`` iff ``B = B'`` or (``B'`` extends ``B`` and
``marker < k``).  Generalized votes (Section 3.4) endorse ``B`` iff the
threshold lies in the vote's interval set.

:class:`EndorsementTracker` ingests strong-QCs as a replica learns
them and maintains, per block:

* ``endorsers`` — the materialized endorser set (round mode, where the
  threshold is the block's own round and hence fixed);
* ``direct``   — voters that voted for the block itself (they endorse
  unconditionally, which matters for height-mode ``k`` queries);
* ``coverage`` — per voter, the smallest marker (or union of interval
  sets) among that voter's votes whose ancestor walk passed through
  the block.

Processing a vote walks the voted block's ancestor path.  The walk
stops early at a block where the voter's stored coverage is at least
as permissive as the new vote (``stored_marker <= new_marker``, or the
new vote's still-relevant intervals are a subset of the stored union):
ancestor paths are unique, so the earlier vote's walk already recorded
everything the new walk would contribute below that point.  Steady
state cost is O(1) per vote, and the result is *exact*: the test
suite's brute-force oracle recomputes endorser sets from the raw vote
log and certifies the optimization.
"""

from __future__ import annotations

from repro.core.intervals import IntervalSet
from repro.types.block import Block, BlockId
from repro.types.chain import BlockStore
from repro.types.quorum_cert import QuorumCertificate


class _BlockEndorsementState:
    """Per-block endorsement bookkeeping."""

    __slots__ = ("direct", "marker_coverage", "interval_coverage", "endorsers")

    def __init__(self) -> None:
        self.direct: set[int] = set()
        self.marker_coverage: dict[int, int] = {}
        self.interval_coverage: dict[int, IntervalSet] = {}
        self.endorsers: set[int] = set()


class EndorsementTracker:
    """Tracks endorser sets for every block one replica knows about.

    ``mode`` selects the conflict metric: ``"round"`` (SFT-DiemBFT) or
    ``"height"`` (SFT-Streamlet).  Listeners registered through
    :meth:`add_listener` are invoked as ``listener(block, count, now)``
    in round mode whenever a block gains an endorser.

    ``naive=True`` deliberately reproduces the flawed accounting that
    Appendix C refutes: markers (and interval sets) are ignored and
    every vote is treated as endorsing the full ancestor path, exactly
    "counting all indirect votes".  Only the invariant oracle and the
    fuzzer use it — to demonstrate the Definition 1 violation that SFT
    markers repair.
    """

    def __init__(
        self, store: BlockStore, mode: str = "round", naive: bool = False
    ) -> None:
        if mode not in ("round", "height"):
            raise ValueError("mode must be 'round' or 'height'")
        self._store = store
        self._mode = mode
        self._naive = naive
        self._states: dict[BlockId, _BlockEndorsementState] = {}
        self._listeners: list = []
        self._processed_qcs: set[BlockId] = set()
        self.skipped_votes = 0

    def add_listener(self, listener) -> None:
        """Register ``listener(block, count, now)`` for round-mode growth."""
        self._listeners.append(listener)

    def forget_pruned(self, pruned) -> None:
        """Drop per-block state for checkpoint-truncated blocks.

        Pruned blocks sit below the stable checkpoint (or on forks
        abandoned below it); their endorser counts can never again be
        queried by a commit rule, so the bookkeeping is released to keep
        long-running memory bounded.
        """
        for block_id in pruned:
            self._states.pop(block_id, None)
            self._processed_qcs.discard(block_id)

    def _state(self, block_id: BlockId) -> _BlockEndorsementState:
        state = self._states.get(block_id)
        if state is None:
            state = _BlockEndorsementState()
            self._states[block_id] = state
        return state

    def _key(self, block: Block) -> int:
        return block.round if self._mode == "round" else block.height

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    def add_strong_qc(self, qc: QuorumCertificate, now: float = 0.0) -> None:
        """Process every strong-vote contained in ``qc``.

        Re-submitting the same QC is a cheap no-op.  Votes for blocks
        this replica does not know yet are counted in ``skipped_votes``
        (their endorsements are recovered when the vote re-appears in a
        later QC; in practice QCs always follow their blocks).
        """
        if qc.block_id in self._processed_qcs:
            return
        if qc.block_id not in self._store:
            self.skipped_votes += len(qc.votes)
            return
        self._processed_qcs.add(qc.block_id)
        for vote in qc.votes:
            self.add_vote(vote, now)

    def add_vote(self, vote, now: float = 0.0) -> None:
        """Process a single (strong-)vote.

        Plain :class:`~repro.types.vote.Vote` objects behave like
        strong-votes with marker 0, so the tracker is also usable for
        direct-vote accounting in tests.
        """
        block = self._store.maybe_get(vote.block_id)
        if block is None:
            self.skipped_votes += 1
            return
        voter = vote.voter

        # Direct endorsement: a vote always endorses its own block.
        state = self._state(vote.block_id)
        if voter not in state.direct:
            state.direct.add(voter)
            if voter not in state.endorsers:
                self._add_endorser(block, state, voter, now)

        if self._naive:
            # Flawed Appendix-C accounting: pretend the voter never
            # voted for a conflicting block (marker 0 endorses the
            # whole ancestor path).
            self._walk_marker(block, voter, 0, now)
        elif vote.intervals:
            self._walk_intervals(
                block, voter, IntervalSet.from_pairs(vote.intervals), now
            )
        else:
            self._walk_marker(block, voter, vote.conflicts_marker(), now)

    # ------------------------------------------------------------------
    # ancestor walks
    # ------------------------------------------------------------------

    def _walk_marker(self, block: Block, voter: int, marker: int, now: float) -> None:
        round_mode = self._mode == "round"
        cursor = block
        while cursor is not None:
            state = self._state(cursor.id())
            stored = state.marker_coverage.get(voter)
            if stored is not None and stored <= marker:
                return  # an earlier vote already covered this path at least as deeply
            state.marker_coverage[voter] = (
                marker if stored is None else min(stored, marker)
            )
            if round_mode:
                if marker < cursor.round:
                    if voter not in state.endorsers:
                        self._add_endorser(cursor, state, voter, now)
                else:
                    # Rounds strictly decrease towards genesis, so this
                    # vote endorses nothing below either.  Coverage is
                    # recorded, so equal-or-larger markers stop here.
                    return
            if cursor.parent_id is None:
                return
            cursor = self._store.maybe_get(cursor.parent_id)

    def _walk_intervals(
        self, block: Block, voter: int, intervals: IntervalSet, now: float
    ) -> None:
        round_mode = self._mode == "round"
        cursor = block
        while cursor is not None:
            state = self._state(cursor.id())
            key = self._key(cursor)
            if round_mode:
                # Only thresholds <= this block's round matter from here
                # down (rounds strictly decrease towards genesis).
                relevant = intervals.clamp(0, key)
                if relevant.is_empty():
                    return
            else:
                # Height mode: k-endorsement thresholds are unbounded, so
                # the full interval set stays relevant all the way down.
                relevant = intervals
            stored = state.interval_coverage.get(voter)
            if stored is not None and relevant.issubset(stored):
                return
            state.interval_coverage[voter] = (
                relevant if stored is None else stored.union(relevant)
            )
            if round_mode and key in relevant:
                if voter not in state.endorsers:
                    self._add_endorser(cursor, state, voter, now)
            if cursor.parent_id is None:
                return
            cursor = self._store.maybe_get(cursor.parent_id)

    def _add_endorser(
        self, block: Block, state: _BlockEndorsementState, voter: int, now: float
    ) -> None:
        state.endorsers.add(voter)
        if self._mode != "round":
            return
        count = len(state.endorsers)
        for listener in self._listeners:
            listener(block, count, now)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def count(self, block_id: BlockId) -> int:
        """Endorser count in round mode (threshold = the block's round)."""
        state = self._states.get(block_id)
        return len(state.endorsers) if state is not None else 0

    def endorsers(self, block_id: BlockId) -> frozenset:
        """The endorser set in round mode."""
        state = self._states.get(block_id)
        return frozenset(state.endorsers) if state is not None else frozenset()

    def count_at(self, block_id: BlockId, k: int) -> int:
        """``k``-endorser count (height mode, Figure 11)."""
        return len(self.endorsers_at(block_id, k))

    def endorsers_at(self, block_id: BlockId, k: int) -> frozenset:
        """The set of ``k``-endorsers of ``block_id``."""
        state = self._states.get(block_id)
        if state is None:
            return frozenset()
        result = set(state.direct)
        for voter, marker in state.marker_coverage.items():
            if marker < k:
                result.add(voter)
        for voter, intervals in state.interval_coverage.items():
            if k in intervals:
                result.add(voter)
        return frozenset(result)
