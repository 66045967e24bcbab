"""Regular and strong commit rules (3-chain and strong 3-chain).

Regular rules:

* DiemBFT (Figure 2): commit ``B_k`` (and ancestors) on seeing three
  adjacent certified blocks ``B_k, B_k+1, B_k+2`` with consecutive
  rounds — detection fires when the QC for ``B_k+2`` becomes known.
* Streamlet (Figure 10): commit ``B_k`` (the middle block) on seeing
  certified ``B_k-1, B_k, B_k+1`` at consecutive rounds.

Strong rules:

* SFT-DiemBFT (Figure 4): ``x``-strong commit ``B_k`` (and ancestors)
  iff the 3-chain blocks each have ``≥ x + f + 1`` endorsers.
* SFT-Streamlet (Figure 11): same with ``k``-endorsers, ``k`` the
  height of the middle block.

Because an ``x``-strong commit of a block strong-commits *all its
ancestors*, a block's strength is the max over every descendant
3-chain; :class:`CommitTracker` propagates level increases down the
ancestor path, recording first-reach times per level — the data behind
Figures 7 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.endorsement import EndorsementTracker
from repro.core.resilience import StrengthTimeline, max_strength
from repro.types.block import Block, BlockId
from repro.types.chain import BlockStore
from repro.types.quorum_cert import QuorumCertificate

#: Blocks in a commit chain: both rules need three adjacent certified
#: blocks at consecutive rounds, so a proposal extending a block
#: carries the QC that completes the chain of that block's grandparent.
CHAIN_LENGTH = 3


@dataclass(frozen=True, slots=True)
class CommitEvent:
    """A block became (regularly) committed at this replica."""

    block_id: BlockId
    round: int
    height: int
    committed_at: float
    created_at: float

    def latency(self) -> float:
        return self.committed_at - self.created_at


@dataclass(frozen=True, slots=True)
class StrongCommitEvent:
    """A block reached a new strength level at this replica."""

    block_id: BlockId
    level: int
    at: float


class CommitTracker:
    """Per-replica commit state machine.

    ``rule`` is ``"diembft"`` (head-committing 3-chain) or
    ``"streamlet"`` (middle-committing 3-chain).  When an
    :class:`EndorsementTracker` is attached, strong-commit strength is
    tracked as endorsements accrue.
    """

    def __init__(
        self,
        store: BlockStore,
        f: int,
        rule: str = "diembft",
        endorsement: EndorsementTracker | None = None,
    ) -> None:
        if rule not in ("diembft", "streamlet"):
            raise ValueError("rule must be 'diembft' or 'streamlet'")
        self._store = store
        self.f = f
        self._rule = rule
        self._endorsement = endorsement
        self.committed: dict[BlockId, CommitEvent] = {}
        self.commit_order: list[CommitEvent] = []
        self.strong_events: list[StrongCommitEvent] = []
        self._timelines: dict[BlockId, StrengthTimeline] = {}
        self._active_triples: dict[BlockId, tuple] = {}
        self._max_strength = max_strength(f)
        self._quorum = 2 * f + 1
        self.highest_committed_round = 0
        #: Commit heights installed via snapshot transfer rather than
        #: 3-chain detection: a joiner's commit log legitimately jumps
        #: to the checkpoint height, and the prefix-consistency oracle
        #: excuses exactly these gaps.
        self.snapshot_heights: set[int] = set()
        #: First time this replica processed each block's QC — the
        #: proposal→QC phase boundary in the latency decomposition
        #: (:mod:`repro.obs.phases`).  Same lifetime as ``committed``.
        self.qc_times: dict[BlockId, float] = {}
        #: Optional :class:`repro.obs.Tracer` the owning replica
        #: attaches; ``endorse`` lifecycle spans are emitted here, the
        #: one place strength raises happen for every protocol family.
        self.tracer = None
        #: Transactions in the blocks committed here, counted at commit.
        self.committed_txs = 0
        self._commit_listeners: list = []
        if endorsement is not None and rule == "diembft":
            endorsement.add_listener(self._on_endorser_update)

    def add_commit_listener(self, listener) -> None:
        """Register ``listener(block, now)``, called as each block
        commits, oldest first, before checkpoint truncation can prune
        it.  Listeners observe only; they run in registration order.
        Heights a snapshot install skips fire no listener."""
        self._commit_listeners.append(listener)

    # ------------------------------------------------------------------
    # regular commits
    # ------------------------------------------------------------------

    def on_new_qc(self, qc: QuorumCertificate, now: float) -> list:
        """Feed a newly learned QC; returns newly committed blocks.

        The caller must have recorded the QC's block (and the QC
        itself) in the block store first.
        """
        self.qc_times.setdefault(qc.block_id, now)
        tip = self._store.maybe_get(qc.block_id)
        if tip is None:
            return []
        if self._rule == "diembft":
            return self._check_diembft_commit(tip, now)
        return self._check_streamlet_commit(tip, now)

    def _check_diembft_commit(self, tip: Block, now: float) -> list:
        middle = self._store.parent(tip.id())
        if middle is None:
            return []
        head = self._store.parent(middle.id())
        if head is None:
            return []
        if tip.round != middle.round + 1 or middle.round != head.round + 1:
            return []
        if not (
            self._store.is_certified(tip.id())
            and self._store.is_certified(middle.id())
            and self._store.is_certified(head.id())
        ):
            return []
        self._register_triple(head, middle, tip, now)
        return self._commit_through(head, now)

    def _check_streamlet_commit(self, tip: Block, now: float) -> list:
        middle = self._store.parent(tip.id())
        if middle is None:
            return []
        head = self._store.parent(middle.id())
        if head is None:
            return []
        if tip.round != middle.round + 1 or middle.round != head.round + 1:
            return []
        if not (
            self._store.is_certified(tip.id())
            and self._store.is_certified(middle.id())
            and self._store.is_certified(head.id())
        ):
            return []
        self._register_triple(head, middle, tip, now)
        return self._commit_through(middle, now)

    def _commit_through(self, block: Block, now: float) -> list:
        """Commit ``block`` and all uncommitted ancestors (oldest first)."""
        pending = []
        cursor = block
        while cursor is not None and cursor.id() not in self.committed:
            pending.append(cursor)
            if cursor.parent_id is None:
                break
            cursor = self._store.maybe_get(cursor.parent_id)
        newly = []
        for blk in reversed(pending):
            event = CommitEvent(
                block_id=blk.id(),
                round=blk.round,
                height=blk.height,
                committed_at=now,
                created_at=blk.created_at,
            )
            self.committed[blk.id()] = event
            self.commit_order.append(event)
            newly.append(event)
            if blk.round > self.highest_committed_round:
                self.highest_committed_round = blk.round
            self.committed_txs += blk.payload.tx_count()
            for listener in self._commit_listeners:
                listener(blk, now)
        return newly

    def forget_pruned(self, pruned) -> None:
        """Drop 3-chain work state anchored at truncated blocks.

        Strength timelines survive (they are observer metrics the
        analysis layer reads after the run); only the active-triple
        work set shrinks, since a pruned anchor can never fire again.
        """
        for anchor_id in [a for a in self._active_triples if a in pruned]:
            del self._active_triples[anchor_id]

    # ------------------------------------------------------------------
    # strong commits
    # ------------------------------------------------------------------

    def _register_triple(self, head: Block, middle: Block, tip: Block, now: float):
        """Remember a consecutive-round 3-chain for strength evaluation."""
        anchor = head if self._rule == "diembft" else middle
        if anchor.id() in self._active_triples:
            return
        self._active_triples[anchor.id()] = (head, middle, tip)
        if self._endorsement is not None:
            self._evaluate_triple(head, middle, tip, now)

    def _on_endorser_update(self, block: Block, count: int, now: float) -> None:
        """Endorsement listener (round mode): re-check affected triples.

        Strength is ``min(counts) - f - 1`` and a strong commit needs
        strength ≥ f, i.e. every 3-chain member at ≥ 2f + 1 endorsers.
        While ``block`` itself is still below quorum no triple through
        it can fire, so the first 2f updates per block skip the
        structural walk entirely — the dominant listener cost at scale.
        """
        if count < self._quorum:
            return
        # ``block`` participates in each triple, so any strength
        # computed below is ≤ min(count - f - 1, 2f); an anchor already
        # at that level cannot rise — skip the certification/count
        # queries.
        bound = count - self.f - 1
        if bound > self._max_strength:
            bound = self._max_strength
        timelines = self._timelines
        head_anchor = self._rule == "diembft"
        for triple in self._triples_containing(block):
            anchor = triple[0] if head_anchor else triple[1]
            timeline = timelines.get(anchor.id())
            if timeline is not None and timeline.current >= bound:
                continue
            self._evaluate_triple(*triple, now)

    def _triples_containing(self, block: Block):
        """Consecutive-round 3-chains in which ``block`` participates."""
        store = self._store
        block_id = block.id()
        parent = store.parent(block_id)
        grand = store.parent(parent.id()) if parent is not None else None
        # block as tip
        if (
            parent is not None
            and grand is not None
            and block.round == parent.round + 1
            and parent.round == grand.round + 1
        ):
            yield (grand, parent, block)
        # block as middle
        if parent is not None and block.round == parent.round + 1:
            for child_id in store.iter_children(block_id):
                child = store.get(child_id)
                if child.round == block.round + 1:
                    yield (parent, block, child)
        # block as head
        for child_id in store.iter_children(block_id):
            child = store.get(child_id)
            if child.round != block.round + 1:
                continue
            for grandchild_id in store.iter_children(child_id):
                grandchild = store.get(grandchild_id)
                if grandchild.round == child.round + 1:
                    yield (block, child, grandchild)

    def _evaluate_triple(
        self, head: Block, middle: Block, tip: Block, now: float
    ) -> None:
        """Apply the strong commit rule to one 3-chain.

        Two provably-no-op cases exit early: an anchor already at max
        strength cannot rise (``raise_to`` would refuse), and a
        computed strength at or below the anchor's current level
        changes nothing either.  Both skips leave every observable
        state — timelines, events, first-reach times — identical.
        """
        if self._endorsement is None:
            return
        anchor = head if self._rule == "diembft" else middle
        timeline = self._timelines.get(anchor.id())
        if timeline is not None and timeline.current >= self._max_strength:
            return  # saturated: nothing a new endorser can add
        if not (
            self._store.is_certified(head.id())
            and self._store.is_certified(middle.id())
            and self._store.is_certified(tip.id())
        ):
            return
        if self._rule == "diembft":
            counts = (
                self._endorsement.count(head.id()),
                self._endorsement.count(middle.id()),
                self._endorsement.count(tip.id()),
            )
        else:
            k = middle.height
            counts = (
                self._endorsement.count_at(head.id(), k),
                self._endorsement.count_at(middle.id(), k),
                self._endorsement.count_at(tip.id(), k),
            )
        strength = min(counts) - self.f - 1
        strength = min(strength, self._max_strength)
        if strength < self.f:
            return  # below the regular commit threshold: no strong commit yet
        if timeline is not None and strength <= timeline.current:
            return  # already recorded at this level or higher
        self._raise_strength(anchor, strength, now)

    def evaluate_strong_commits(self, now: float) -> None:
        """Re-evaluate every registered 3-chain (height mode driver).

        Streamlet's ``k``-endorser counts have no incremental listener,
        so the replica calls this after ingesting each strong-QC.
        Saturated triples (strength ``2f``) are dropped from the active
        set.
        """
        if self._endorsement is None:
            return
        saturated = []
        for anchor_id, (head, middle, tip) in self._active_triples.items():
            self._evaluate_triple(head, middle, tip, now)
            timeline = self._timelines.get(anchor_id)
            if timeline is not None and timeline.current >= max_strength(self.f):
                saturated.append(anchor_id)
        for anchor_id in saturated:
            del self._active_triples[anchor_id]

    def _raise_strength(self, anchor: Block, strength: int, now: float) -> None:
        """Propagate a strength increase to ``anchor`` and its ancestors."""
        cursor = anchor
        while cursor is not None:
            timeline = self._timelines.get(cursor.id())
            if timeline is None:
                timeline = StrengthTimeline(cursor)
                self._timelines[cursor.id()] = timeline
            if not timeline.raise_to(strength, now):
                return  # this ancestor (hence all below) already at >= strength
            self.strong_events.append(
                StrongCommitEvent(block_id=cursor.id(), level=strength, at=now)
            )
            if self.tracer is not None:
                self.tracer.emit(
                    now, "endorse", round=cursor.round, height=cursor.height,
                    block=cursor.id().short(), value=float(strength),
                )
            if cursor.parent_id is None:
                return
            cursor = self._store.maybe_get(cursor.parent_id)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def strength_of(self, block_id: BlockId) -> int:
        """Current strength level of a block (-1 if not strong committed)."""
        timeline = self._timelines.get(block_id)
        return timeline.current if timeline is not None else -1

    def timeline_of(self, block_id: BlockId) -> StrengthTimeline | None:
        return self._timelines.get(block_id)

    def timelines(self):
        """Iterate over all (block_id, StrengthTimeline) pairs."""
        return self._timelines.items()
