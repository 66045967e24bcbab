"""Fork-aware block store.

Each replica keeps every block it has seen in a :class:`BlockStore`:
a tree rooted at genesis with parent pointers, per-block certification
state, and the ancestry queries the SFT machinery leans on
(``is_ancestor``, ``common_ancestor``, ``conflicts``).

Blocks that arrive before their parents (possible with Byzantine
leaders that equivocate selectively) are buffered as orphans and
inserted once the parent shows up.  The orphan pool is bounded: a
Byzantine peer can flood a replica with parentless garbage that never
becomes insertable, so past :data:`DEFAULT_ORPHAN_CAP` buffered blocks
the pool evicts deterministically, oldest round first.

With checkpointing enabled, :meth:`BlockStore.truncate_below` drops
every block outside the stable checkpoint's subtree, re-rooting the
store at the checkpoint block; ancestry walks stop gracefully at the
truncation boundary.
"""

from __future__ import annotations

from repro.types.block import Block, BlockId
from repro.types.quorum_cert import QuorumCertificate


class ChainError(Exception):
    """Raised on structurally invalid block-store operations."""


#: Maximum buffered parentless blocks before deterministic eviction.
DEFAULT_ORPHAN_CAP = 256


class BlockStore:
    """Tree of blocks with certification bookkeeping.

    The store is deliberately permissive: it records *every*
    structurally valid block, including equivocating ones — the voting
    rules, not the store, decide what is acceptable.
    """

    def __init__(
        self,
        genesis: Block,
        genesis_qc: QuorumCertificate,
        max_orphans: int = DEFAULT_ORPHAN_CAP,
    ) -> None:
        if not genesis.is_genesis():
            raise ChainError("block store must be rooted at a genesis block")
        if max_orphans < 1:
            raise ChainError("orphan cap must be at least 1")
        self.genesis_id = genesis.id()
        self._blocks: dict[BlockId, Block] = {self.genesis_id: genesis}
        self._children: dict[BlockId, list[BlockId]] = {self.genesis_id: []}
        self._qcs: dict[BlockId, QuorumCertificate] = {self.genesis_id: genesis_qc}
        self._orphans: dict[BlockId, list[Block]] = {}
        self._by_round: dict[int, list[BlockId]] = {genesis.round: [self.genesis_id]}
        self._by_height: dict[int, list[BlockId]] = {genesis.height: [self.genesis_id]}
        self.highest_certified_id: BlockId = self.genesis_id
        self.max_orphans = max_orphans
        self._orphan_total = 0
        #: Everything at or below this height has been truncated away;
        #: late-arriving blocks from pruned history are dropped, not
        #: buffered (they could never re-attach).
        self.truncated_height = -1
        #: High-water mark of live (stored) blocks — the memory-bound
        #: metric checkpoint truncation exists to hold down.
        self.peak_live_blocks = 1

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def add_block(self, block: Block) -> list:
        """Insert ``block``; returns the list of blocks newly inserted.

        The result includes ``block`` itself plus any buffered orphans
        that became insertable.  A duplicate returns ``[]``; a block
        whose parent is unknown is buffered (returns ``[]``) and
        inserted when the parent arrives.
        """
        block_id = block.id()
        if block_id in self._blocks:
            return []
        if block.parent_id is None:
            raise ChainError("cannot add a second genesis block")
        if block.parent_id not in self._blocks:
            self._buffer_orphan(block_id, block)
            return []
        self._insert(block_id, block)
        inserted = [block]
        inserted.extend(self._flush_orphans(block_id))
        return inserted

    def _buffer_orphan(self, block_id: BlockId, block: Block) -> None:
        """Buffer a parentless block, evicting past the bounded cap.

        Eviction is deterministic — lowest round first, ties broken on
        the block id — and considers the candidate itself, so a flood
        of bogus orphans can never grow the pool past ``max_orphans``.
        """
        if block.height <= self.truncated_height:
            return  # pruned history: the parent can never re-appear
        pending = self._orphans.get(block.parent_id)
        if pending is not None and any(
            orphan.id() == block_id for orphan in pending
        ):
            return
        if self._orphan_total >= self.max_orphans:
            victim_parent, victim = min(
                (
                    (parent_id, orphan)
                    for parent_id, orphans in self._orphans.items()
                    for orphan in orphans
                ),
                key=lambda item: (item[1].round, item[1].id().value),
            )
            if (victim.round, victim.id().value) > (block.round, block_id.value):
                return  # the candidate is the oldest: drop it instead
            self._orphans[victim_parent].remove(victim)
            if not self._orphans[victim_parent]:
                del self._orphans[victim_parent]
            self._orphan_total -= 1
        self._orphans.setdefault(block.parent_id, []).append(block)
        self._orphan_total += 1

    def _insert(self, block_id: BlockId, block: Block) -> None:
        parent = self._blocks[block.parent_id]
        if block.height != parent.height + 1:
            raise ChainError(
                f"height {block.height} does not extend parent height {parent.height}"
            )
        if block.round <= parent.round:
            raise ChainError(
                f"round {block.round} does not exceed parent round {parent.round}"
            )
        self._blocks[block_id] = block
        self._children[block_id] = []
        self._children[block.parent_id].append(block_id)
        self._by_round.setdefault(block.round, []).append(block_id)
        self._by_height.setdefault(block.height, []).append(block_id)
        if len(self._blocks) > self.peak_live_blocks:
            self.peak_live_blocks = len(self._blocks)
        # A block embeds its parent's QC; record it.
        if block.qc is not None:
            self.record_qc(block.qc)

    def _flush_orphans(self, parent_id: BlockId) -> list:
        inserted = []
        pending = self._orphans.pop(parent_id, [])
        self._orphan_total -= len(pending)
        for orphan in pending:
            inserted.extend(self.add_block(orphan))
        return inserted

    def record_qc(self, qc: QuorumCertificate) -> bool:
        """Record that ``qc.block_id`` is certified.

        Returns True if this certification is new *and* the block is
        known (a QC for an unknown block is remembered once the block
        arrives via its child's embedded QC, so dropping it is safe).
        """
        if qc.block_id in self._qcs:
            return False
        if qc.block_id not in self._blocks:
            return False
        self._qcs[qc.block_id] = qc
        best = self._blocks[self.highest_certified_id]
        candidate = self._blocks[qc.block_id]
        if candidate.round > best.round:
            self.highest_certified_id = qc.block_id
        return True

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def get(self, block_id: BlockId) -> Block:
        try:
            return self._blocks[block_id]
        except KeyError:
            raise ChainError(f"unknown block {block_id.short()}") from None

    def maybe_get(self, block_id: BlockId) -> Block | None:
        return self._blocks.get(block_id)

    def all_qcs(self):
        """Every recorded certificate (invariant-oracle scans)."""
        return self._qcs.values()

    def qc_for(self, block_id: BlockId) -> QuorumCertificate | None:
        """The QC certifying ``block_id``, if known."""
        return self._qcs.get(block_id)

    def is_certified(self, block_id: BlockId) -> bool:
        return block_id in self._qcs

    def children(self, block_id: BlockId) -> tuple:
        return tuple(self._children.get(block_id, ()))

    def iter_children(self, block_id: BlockId):
        """Child ids without the defensive copy (read-only callers)."""
        return self._children.get(block_id, ())

    def blocks_at_round(self, round_number: int) -> tuple:
        return tuple(self._by_round.get(round_number, ()))

    def blocks_at_height(self, height: int) -> tuple:
        return tuple(self._by_height.get(height, ()))

    def parent(self, block_id: BlockId) -> Block | None:
        block = self.get(block_id)
        if block.parent_id is None:
            return None
        return self._blocks.get(block.parent_id)

    def all_blocks(self):
        """Iterate over every stored block (including genesis)."""
        return self._blocks.values()

    def orphan_count(self) -> int:
        return self._orphan_total

    def is_awaited(self, block_id: BlockId) -> bool:
        """True if some buffered orphan lists ``block_id`` as its parent."""
        return block_id in self._orphans

    # ------------------------------------------------------------------
    # truncation (checkpointing)
    # ------------------------------------------------------------------

    def truncate_below(self, root_id: BlockId) -> frozenset:
        """Drop every block outside ``root_id``'s subtree.

        ``root_id`` (the stable checkpoint block) becomes the store's
        effective root: it and all its descendants survive; everything
        else — pruned ancestors, committed siblings, abandoned forks,
        and orphans at or below the checkpoint height — is removed.
        Safe once a 2f+1 checkpoint certificate exists at ``root_id``:
        any future certified chain extends it.

        Returns the frozenset of pruned block ids so callers can clear
        their own per-block memo structures.
        """
        root = self.get(root_id)
        keep: set[BlockId] = set()
        frontier = [root_id]
        while frontier:
            cursor = frontier.pop()
            keep.add(cursor)
            frontier.extend(self._children.get(cursor, ()))
        pruned = frozenset(self._blocks) - keep
        for block_id in pruned:
            block = self._blocks.pop(block_id)
            self._children.pop(block_id, None)
            self._qcs.pop(block_id, None)
            siblings = self._by_round.get(block.round)
            if siblings is not None:
                siblings.remove(block_id)
                if not siblings:
                    del self._by_round[block.round]
            cohort = self._by_height.get(block.height)
            if cohort is not None:
                cohort.remove(block_id)
                if not cohort:
                    del self._by_height[block.height]
        self.truncated_height = max(self.truncated_height, root.height - 1)
        # Stale orphans: anything at or below the checkpoint height can
        # never re-attach (its parent chain is gone for good).  Swept
        # even when nothing was stored below the new root, because
        # truncated_height rises on that path too.
        for parent_id in list(self._orphans):
            pending = self._orphans[parent_id]
            fresh = [
                orphan
                for orphan in pending
                if orphan.height > self.truncated_height
            ]
            self._orphan_total -= len(pending) - len(fresh)
            if fresh:
                self._orphans[parent_id] = fresh
            else:
                del self._orphans[parent_id]
        if self.highest_certified_id not in self._blocks:
            best_id = root_id
            best_round = root.round
            for block_id in self._qcs:
                block = self._blocks.get(block_id)
                if block is not None and block.round > best_round:
                    best_round = block.round
                    best_id = block_id
            self.highest_certified_id = best_id
        return pruned

    def adopt_root(self, block: Block) -> tuple:
        """Install ``block`` as the store's new root (snapshot join).

        Used when a quorum-certified checkpoint block arrives via
        snapshot transfer and connects to nothing local: its parent
        chain exists only in history the cluster already truncated, so
        the block is registered without parent validation and
        everything outside its subtree — including genesis — is pruned.

        Returns ``(pruned_ids, flushed_blocks)``: the pruned id
        frozenset (for memo cleanup) and any buffered orphans that
        re-attached under the new root (for ordinary post-insertion
        processing).
        """
        block_id = block.id()
        if block_id not in self._blocks:
            self._blocks[block_id] = block
            self._children.setdefault(block_id, [])
            self._by_round.setdefault(block.round, []).append(block_id)
            self._by_height.setdefault(block.height, []).append(block_id)
            if len(self._blocks) > self.peak_live_blocks:
                self.peak_live_blocks = len(self._blocks)
            if block.qc is not None and block.parent_id in self._blocks:
                self.record_qc(block.qc)
        pruned = self.truncate_below(block_id)
        flushed = self._flush_orphans(block_id)
        return pruned, flushed

    # ------------------------------------------------------------------
    # ancestry
    # ------------------------------------------------------------------

    def is_ancestor(self, ancestor_id: BlockId, descendant_id: BlockId) -> bool:
        """True iff ``ancestor_id`` is an ancestor of (or equals) ``descendant_id``.

        Matches the paper's "B_l extends B_k": a block extends itself.
        """
        ancestor = self.get(ancestor_id)
        cursor = self.get(descendant_id)
        while cursor.height > ancestor.height:
            parent = self._blocks.get(cursor.parent_id)
            if parent is None:
                return False  # walk fell off the truncation boundary
            cursor = parent
        # The store holds exactly one Block object per id, so identity
        # comparison is equivalent to id comparison and avoids hashing.
        return cursor is ancestor

    def common_ancestor(self, a_id: BlockId, b_id: BlockId) -> Block:
        """The deepest block that both ``a_id`` and ``b_id`` extend."""
        def _parent(block: Block) -> Block:
            parent = self._blocks.get(block.parent_id)
            if parent is None:
                raise ChainError(
                    f"common ancestor of {a_id.short()} and {b_id.short()} "
                    "was truncated"
                )
            return parent

        a = self.get(a_id)
        b = self.get(b_id)
        while a.height > b.height:
            a = _parent(a)
        while b.height > a.height:
            b = _parent(b)
        while a is not b:
            a = _parent(a)
            b = _parent(b)
        return a

    def conflicts(self, a_id: BlockId, b_id: BlockId) -> bool:
        """Two blocks conflict iff neither extends the other (Section 2.1)."""
        if a_id == b_id:
            return False
        return not self.is_ancestor(a_id, b_id) and not self.is_ancestor(b_id, a_id)

    def iter_ancestors(self, block_id: BlockId):
        """Yield ``block_id``'s block then each *stored* ancestor.

        Ends at genesis, or at the truncation root when history below
        the stable checkpoint has been pruned.
        """
        cursor = self.get(block_id)
        while True:
            yield cursor
            if cursor.parent_id is None:
                return
            parent = self._blocks.get(cursor.parent_id)
            if parent is None:
                return
            cursor = parent

    # ------------------------------------------------------------------
    # chain queries used by protocol rules
    # ------------------------------------------------------------------

    def highest_certified_block(self) -> Block:
        """The certified block with the highest round (DiemBFT proposing)."""
        return self._blocks[self.highest_certified_id]

    def longest_certified_tips(self) -> list:
        """Tips of the longest *certified* chains (Streamlet proposing).

        A certified chain is a chain whose blocks are all certified;
        because a block's QC certifies its parent, it is enough to find
        maximal-height certified blocks.
        """
        best_height = -1
        tips: list = []
        for block_id, qc in self._qcs.items():
            del qc
            block = self._blocks.get(block_id)
            if block is None:
                continue
            if block.height > best_height:
                best_height = block.height
                tips = [block]
            elif block.height == best_height:
                tips.append(block)
        return tips

    def certified_chain_height(self) -> int:
        """Height of the longest certified chain."""
        tips = self.longest_certified_tips()
        return tips[0].height if tips else 0
