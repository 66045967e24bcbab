"""BlockStore: insertion, orphans, ancestry, certification, truncation."""

import pytest

from repro.types.block import Block, make_genesis
from repro.types.chain import BlockStore, ChainError
from tests.conftest import ChainBuilder, ancestor_at_height, store_root


class TestInsertion:
    def test_genesis_present(self, builder):
        assert builder.genesis.id() in builder.store
        assert len(builder.store) == 1

    def test_add_and_lookup(self, builder):
        block = builder.block(builder.genesis, 1)
        assert builder.store.get(block.id()) is block

    def test_duplicate_add_is_noop(self, builder):
        block = builder.block(builder.genesis, 1)
        assert builder.store.add_block(block) == []
        assert len(builder.store) == 2

    def test_second_genesis_rejected(self, builder):
        # A *different* parentless block must be rejected (the stored
        # genesis itself deduplicates as a no-op).
        with pytest.raises(ChainError):
            builder.store.add_block(
                Block(parent_id=None, qc=None, round=0, height=0, proposer=5)
            )
        assert builder.store.add_block(builder.genesis) == []

    def test_height_must_extend_parent(self, builder):
        bad = Block(
            parent_id=builder.genesis.id(),
            qc=builder.genesis_qc,
            round=1,
            height=5,
            proposer=0,
        )
        with pytest.raises(ChainError):
            builder.store.add_block(bad)

    def test_round_must_exceed_parent(self, builder):
        block = builder.block(builder.genesis, 3)
        bad = Block(
            parent_id=block.id(),
            qc=None,
            round=3,
            height=block.height + 1,
            proposer=0,
        )
        with pytest.raises(ChainError):
            builder.store.add_block(bad)

    def test_unknown_block_lookup_raises(self, builder):
        genesis, _ = make_genesis()
        missing = Block(
            parent_id=genesis.id(), qc=None, round=9, height=1, proposer=0
        )
        with pytest.raises(ChainError):
            builder.store.get(missing.id())
        assert builder.store.maybe_get(missing.id()) is None


class TestOrphans:
    def test_orphan_buffered_then_flushed(self, builder):
        parent = Block(
            parent_id=builder.genesis.id(),
            qc=builder.genesis_qc,
            round=1,
            height=1,
            proposer=0,
        )
        child = Block(
            parent_id=parent.id(), qc=None, round=2, height=2, proposer=1
        )
        assert builder.store.add_block(child) == []
        assert child.id() not in builder.store
        assert builder.store.is_awaited(parent.id())
        inserted = builder.store.add_block(parent)
        assert [b.id() for b in inserted] == [parent.id(), child.id()]
        assert child.id() in builder.store
        assert not builder.store.is_awaited(parent.id())

    def test_orphan_chain_flushes_recursively(self, builder):
        a = Block(
            parent_id=builder.genesis.id(),
            qc=builder.genesis_qc,
            round=1,
            height=1,
            proposer=0,
        )
        b = Block(parent_id=a.id(), qc=None, round=2, height=2, proposer=0)
        c = Block(parent_id=b.id(), qc=None, round=3, height=3, proposer=0)
        builder.store.add_block(c)
        builder.store.add_block(b)
        assert builder.store.orphan_count() == 2
        inserted = builder.store.add_block(a)
        assert len(inserted) == 3
        assert builder.store.orphan_count() == 0

    def test_duplicate_orphan_not_buffered_twice(self, builder):
        parent = Block(
            parent_id=builder.genesis.id(),
            qc=builder.genesis_qc,
            round=1,
            height=1,
            proposer=0,
        )
        child = Block(parent_id=parent.id(), qc=None, round=2, height=2, proposer=0)
        builder.store.add_block(child)
        builder.store.add_block(child)
        assert builder.store.orphan_count() == 1


class TestAncestry:
    def test_self_is_ancestor(self, builder):
        block = builder.block(builder.genesis, 1)
        assert builder.store.is_ancestor(block.id(), block.id())

    def test_linear_chain_ancestry(self, builder):
        blocks = builder.chain(builder.genesis, [1, 2, 3, 4])
        assert builder.store.is_ancestor(blocks[0].id(), blocks[3].id())
        assert not builder.store.is_ancestor(blocks[3].id(), blocks[0].id())
        assert builder.store.is_ancestor(
            builder.genesis.id(), blocks[3].id()
        )

    def test_fork_blocks_conflict(self, builder):
        base = builder.block(builder.genesis, 1)
        left = builder.block(base, 2)
        right = builder.block(base, 3)
        assert builder.store.conflicts(left.id(), right.id())
        assert not builder.store.conflicts(base.id(), left.id())
        assert not builder.store.conflicts(left.id(), left.id())

    def test_common_ancestor_of_fork(self, builder):
        base = builder.block(builder.genesis, 1)
        left = builder.block(base, 2)
        left2 = builder.block(left, 3)
        right = builder.block(base, 4)
        ancestor = builder.store.common_ancestor(left2.id(), right.id())
        assert ancestor.id() == base.id()

    def test_common_ancestor_on_same_branch(self, builder):
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        ancestor = builder.store.common_ancestor(
            blocks[0].id(), blocks[2].id()
        )
        assert ancestor.id() == blocks[0].id()

    def test_iter_ancestors(self, builder):
        blocks = builder.chain(builder.genesis, [1, 2])
        rounds = [b.round for b in builder.store.iter_ancestors(blocks[1].id())]
        assert rounds == [2, 1, 0]

    def test_ancestor_at_height(self, builder):
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        store = builder.store
        assert ancestor_at_height(store, blocks[2].id(), 1).id() == blocks[0].id()
        assert ancestor_at_height(store, blocks[2].id(), 3).id() == blocks[2].id()
        assert ancestor_at_height(store, blocks[2].id(), 0).id() == (
            builder.genesis.id()
        )


class TestCertification:
    def test_record_qc_marks_certified(self, builder):
        block = builder.block(builder.genesis, 1)
        assert not builder.store.is_certified(block.id())
        builder.certify(block)
        assert builder.store.is_certified(block.id())

    def test_highest_certified_tracks_round(self, builder):
        low = builder.block(builder.genesis, 1)
        builder.certify(low)
        high = builder.block(low, 5)
        builder.certify(high)
        assert builder.store.highest_certified_block().id() == high.id()

    def test_record_qc_twice_is_noop(self, builder):
        block = builder.block(builder.genesis, 1)
        qc = builder.certify(block)
        assert not builder.store.record_qc(qc)
        assert builder.store.qc_for(block.id()) is qc

    def test_lower_round_qc_keeps_highest(self, builder):
        base = builder.block(builder.genesis, 1)
        high = builder.block(base, 5)
        low = builder.block(base, 2, proposer=3)
        builder.certify(high)
        builder.certify(low)
        assert builder.store.is_certified(low.id())
        assert builder.store.highest_certified_block().id() == high.id()

    def test_qc_for_unknown_block_not_recorded(self, builder):
        genesis, _ = make_genesis()
        phantom = Block(
            parent_id=genesis.id(), qc=None, round=7, height=1, proposer=0
        )
        from repro.types.quorum_cert import QuorumCertificate

        qc = QuorumCertificate(
            block_id=phantom.id(), round=7, height=1, votes=()
        )
        assert not builder.store.record_qc(qc)

    def test_longest_certified_tips(self, builder):
        base = builder.block(builder.genesis, 1)
        builder.certify(base)
        left = builder.block(base, 2)
        builder.certify(left)
        right = builder.block(base, 3)
        builder.certify(right)
        tips = builder.store.longest_certified_tips()
        assert {tip.id() for tip in tips} == {left.id(), right.id()}
        assert builder.store.certified_chain_height() == 2

    def test_uncertified_blocks_not_tips(self, builder):
        base = builder.block(builder.genesis, 1)
        builder.certify(base)
        builder.block(base, 2)  # never certified
        tips = builder.store.longest_certified_tips()
        assert {tip.id() for tip in tips} == {base.id()}


class TestBlocksByRoundAndHeight:
    def test_equivocating_blocks_indexed_by_round(self, builder):
        base = builder.block(builder.genesis, 1)
        left = builder.block(base, 2)
        right = builder.block(base, 2, proposer=1)
        assert set(builder.store.blocks_at_round(2)) == {left.id(), right.id()}

    def test_blocks_at_height(self, builder):
        base = builder.block(builder.genesis, 1)
        left = builder.block(base, 2)
        right = builder.block(base, 3)
        assert set(builder.store.blocks_at_height(2)) == {
            left.id(),
            right.id(),
        }

    def test_children(self, builder):
        base = builder.block(builder.genesis, 1)
        left = builder.block(base, 2)
        right = builder.block(base, 3)
        assert set(builder.store.children(base.id())) == {
            left.id(),
            right.id(),
        }


class TestOrphanCap:
    def _orphan(self, round_number: int, proposer: int = 0) -> Block:
        # Parentless relative to the store: each orphan hangs off a
        # made-up parent that never arrives.
        phantom = Block(
            parent_id=None, qc=None, round=round_number, height=0,
            proposer=proposer + 7,
        )
        return Block(
            parent_id=phantom.id(),
            qc=None,
            round=round_number,
            height=round_number,
            proposer=proposer,
        )

    def test_flood_cannot_exceed_cap(self):
        genesis, genesis_qc = make_genesis()
        store = BlockStore(genesis, genesis_qc, max_orphans=8)
        for round_number in range(1, 100):
            store.add_block(self._orphan(round_number))
            assert store.orphan_count() <= 8
        assert store.orphan_count() == 8

    def test_eviction_is_oldest_round_first(self):
        genesis, genesis_qc = make_genesis()
        store = BlockStore(genesis, genesis_qc, max_orphans=3)
        old = self._orphan(1)
        store.add_block(old)
        for round_number in (5, 6, 7):
            store.add_block(self._orphan(round_number))
        # The round-1 orphan was the eviction victim; its parent is no
        # longer awaited while the newer parents still are.
        assert not store.is_awaited(old.parent_id)
        assert store.orphan_count() == 3

    def test_oldest_candidate_is_dropped_not_buffered(self):
        genesis, genesis_qc = make_genesis()
        store = BlockStore(genesis, genesis_qc, max_orphans=2)
        for round_number in (5, 6):
            store.add_block(self._orphan(round_number))
        stale = self._orphan(1)
        store.add_block(stale)
        assert not store.is_awaited(stale.parent_id)
        assert store.orphan_count() == 2

    def test_cap_must_be_positive(self):
        genesis, genesis_qc = make_genesis()
        with pytest.raises(ChainError):
            BlockStore(genesis, genesis_qc, max_orphans=0)


class TestTruncation:
    def _forked_store(self, builder):
        """genesis → a → b → c → d plus a fork sibling off ``a``."""
        a = builder.block(builder.genesis, 1)
        fork = builder.block(a, 2, proposer=3)
        b = builder.block(a, 3)
        c = builder.block(b, 4)
        d = builder.block(c, 5)
        return a, fork, b, c, d

    def test_truncate_keeps_root_and_descendants(self, builder):
        a, fork, b, c, d = self._forked_store(builder)
        pruned = builder.store.truncate_below(b.id())
        assert pruned == {builder.genesis.id(), a.id(), fork.id()}
        for survivor in (b, c, d):
            assert survivor.id() in builder.store
        assert store_root(builder.store).id() == b.id()
        assert builder.store.truncated_height == b.height - 1

    def test_root_is_genesis_before_truncation(self, builder):
        self._forked_store(builder)
        assert store_root(builder.store).id() == builder.genesis.id()

    def test_iter_ancestors_stops_at_truncation_root(self, builder):
        a, fork, b, c, d = self._forked_store(builder)
        builder.store.truncate_below(b.id())
        path = list(builder.store.iter_ancestors(d.id()))
        assert [block.id() for block in path] == [d.id(), c.id(), b.id()]

    def test_truncation_never_removes_at_or_above_root(self, builder):
        # Property over every choice of checkpoint block on the main
        # chain: pruned ids and surviving ids partition the store, and
        # nothing at or above the root's height on its own subtree is
        # ever pruned.
        blocks = [builder.block(builder.genesis, 1)]
        for round_number in range(2, 8):
            blocks.append(builder.block(blocks[-1], round_number))
        for root in blocks[1:]:
            fresh = ChainBuilder(f=1)
            chain = [fresh.block(fresh.genesis, 1)]
            for round_number in range(2, 8):
                chain.append(fresh.block(chain[-1], round_number))
            target = chain[blocks.index(root)]
            pruned = fresh.store.truncate_below(target.id())
            descendants = {
                block.id() for block in chain if block.height >= target.height
            }
            assert descendants & pruned == set()
            assert all(block_id in fresh.store for block_id in descendants)

    def test_iter_children_intact_after_truncation(self, builder):
        _a, _fork, b, c, d = self._forked_store(builder)
        builder.store.truncate_below(b.id())
        assert set(builder.store.children(b.id())) == {c.id()}
        assert set(builder.store.children(c.id())) == {d.id()}
        # And the surviving suffix still extends normally.
        e = builder.block(d, 6)
        assert set(builder.store.children(d.id())) == {e.id()}

    def test_orphans_reattach_above_truncation(self, builder):
        a, _fork, b, c, _d = self._forked_store(builder)
        missing = Block(
            parent_id=c.id(), qc=None, round=6, height=c.height + 1, proposer=0
        )
        orphan = Block(
            parent_id=missing.id(), qc=None, round=7, height=missing.height + 1,
            proposer=0,
        )
        builder.store.add_block(orphan)
        builder.store.truncate_below(b.id())
        # The orphan sits above the checkpoint: still awaited, and it
        # flushes when its parent finally arrives.
        assert builder.store.is_awaited(missing.id())
        inserted = builder.store.add_block(missing)
        assert {block.id() for block in inserted} == {missing.id(), orphan.id()}

    def test_stale_orphans_dropped_by_truncation(self, builder):
        a, _fork, b, _c, _d = self._forked_store(builder)
        phantom = Block(parent_id=None, qc=None, round=1, height=0, proposer=9)
        stale = Block(
            parent_id=phantom.id(), qc=None, round=2, height=1, proposer=2
        )
        builder.store.add_block(stale)
        assert builder.store.orphan_count() == 1
        builder.store.truncate_below(b.id())
        assert builder.store.orphan_count() == 0
        # Late arrivals from pruned history are dropped, not buffered.
        builder.store.add_block(stale)
        assert builder.store.orphan_count() == 0

    def test_no_prune_truncation_still_sweeps_stale_orphans(self, builder):
        # White-box: a boundary that lags the physical root — the state
        # a skipped sweep would otherwise leave behind.  Re-truncating
        # at the root prunes nothing, but the boundary raise must still
        # sweep orphans that can never re-attach.
        _a, _fork, b, _c, _d = self._forked_store(builder)
        builder.store.truncate_below(b.id())
        builder.store.truncated_height = -1
        phantom = Block(parent_id=None, qc=None, round=1, height=0, proposer=9)
        stale = Block(
            parent_id=phantom.id(), qc=None, round=2, height=1, proposer=2
        )
        builder.store.add_block(stale)
        assert builder.store.orphan_count() == 1
        pruned = builder.store.truncate_below(b.id())
        assert pruned == frozenset()
        assert builder.store.truncated_height == b.height - 1
        assert builder.store.orphan_count() == 0

    def test_no_prune_truncation_keeps_live_orphans(self, builder):
        _a, _fork, b, c, _d = self._forked_store(builder)
        builder.store.truncate_below(b.id())
        missing = Block(
            parent_id=c.id(), qc=None, round=6, height=c.height + 1, proposer=0
        )
        orphan = Block(
            parent_id=missing.id(), qc=None, round=7,
            height=missing.height + 1, proposer=0,
        )
        builder.store.add_block(orphan)
        pruned = builder.store.truncate_below(b.id())
        assert pruned == frozenset()
        assert builder.store.is_awaited(missing.id())
        assert builder.store.orphan_count() == 1

    def test_peak_live_blocks_high_water_mark(self, builder):
        a, _fork, b, _c, _d = self._forked_store(builder)
        peak_before = builder.store.peak_live_blocks
        assert peak_before == 6  # genesis + 5
        builder.store.truncate_below(b.id())
        assert len(builder.store) == 3
        assert builder.store.peak_live_blocks == peak_before


class TestAdoptRoot:
    def test_adopt_unknown_root_truncates_everything_else(self, builder):
        a = builder.block(builder.genesis, 1)
        b = builder.block(a, 2)
        # A checkpoint block from a chain this store never saw.
        foreign = Block(
            parent_id=b.id(), qc=None, round=9, height=b.height + 1, proposer=1
        )
        distant = Block(
            parent_id=foreign.id(), qc=None, round=10, height=foreign.height + 1,
            proposer=2,
        )
        pruned, flushed = builder.store.adopt_root(distant)
        assert distant.id() in builder.store
        assert store_root(builder.store).id() == distant.id()
        # Only blocks the store actually held get pruned; the foreign
        # parent was never stored in the first place.
        assert pruned == {builder.genesis.id(), a.id(), b.id()}
        assert flushed == []

    def test_adopt_root_flushes_waiting_orphans(self, builder):
        a = builder.block(builder.genesis, 1)
        root = Block(
            parent_id=a.id(), qc=None, round=5, height=a.height + 1, proposer=0
        )
        child = Block(
            parent_id=root.id(), qc=None, round=6, height=root.height + 1,
            proposer=0,
        )
        builder.store.add_block(child)  # orphan: parent not stored yet
        pruned, flushed = builder.store.adopt_root(root)
        assert [block.id() for block in flushed] == [child.id()]
        assert child.id() in builder.store
        assert builder.genesis.id() in pruned

    def test_adopt_existing_root_is_plain_truncation(self, builder):
        a = builder.block(builder.genesis, 1)
        b = builder.block(a, 2)
        pruned, flushed = builder.store.adopt_root(b)
        assert pruned == {builder.genesis.id(), a.id()}
        assert flushed == []
        assert store_root(builder.store).id() == b.id()


def test_chain_builder_uses_distinct_payload_tags():
    chain_builder = ChainBuilder(f=1)
    a = chain_builder.block(chain_builder.genesis, 1)
    chain_builder2 = ChainBuilder(f=1)
    b = chain_builder2.block(chain_builder2.genesis, 1)
    assert a.id() == b.id()  # same tag sequence → deterministic tests
