"""Regular 3-chain commits and the strong commit rule."""

from repro.core.commit_rules import CommitTracker
from repro.core.endorsement import EndorsementTracker


class TestDiemBFTRegularCommit:
    def test_three_chain_commits_head(self, builder):
        tracker = CommitTracker(builder.store, f=1, rule="diembft")
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        newly = tracker.on_new_qc(builder.store.qc_for(blocks[2].id()), now=5.0)
        committed_rounds = [event.round for event in newly]
        # Head B_1 commits (plus genesis as its ancestor).
        assert committed_rounds == [0, 1]
        assert blocks[0].id() in tracker.committed
        assert blocks[1].id() not in tracker.committed

    def test_non_consecutive_rounds_do_not_commit(self, builder):
        tracker = CommitTracker(builder.store, f=1, rule="diembft")
        blocks = builder.chain(builder.genesis, [1, 2, 4])
        newly = tracker.on_new_qc(builder.store.qc_for(blocks[2].id()), now=5.0)
        assert newly == []

    def test_commit_includes_skipped_round_ancestors(self, builder):
        tracker = CommitTracker(builder.store, f=1, rule="diembft")
        blocks = builder.chain(builder.genesis, [1, 2, 5, 6, 7])
        for block in blocks:
            tracker.on_new_qc(builder.store.qc_for(block.id()), now=1.0)
        # 3-chain (5, 6, 7) commits B_5 and all its ancestors.
        assert blocks[2].id() in tracker.committed
        assert blocks[1].id() in tracker.committed
        assert blocks[0].id() in tracker.committed

    def test_commit_latency_uses_creation_time(self, builder):
        tracker = CommitTracker(builder.store, f=1, rule="diembft")
        base = builder.block(builder.genesis, 1, created_at=1.0)
        builder.certify(base)
        middle = builder.block(base, 2, created_at=2.0)
        builder.certify(middle)
        tip = builder.block(middle, 3, created_at=3.0)
        builder.certify(tip)
        newly = tracker.on_new_qc(builder.store.qc_for(tip.id()), now=4.5)
        head_event = [event for event in newly if event.round == 1][0]
        assert head_event.latency() == 3.5

    def test_commit_events_are_idempotent(self, builder):
        tracker = CommitTracker(builder.store, f=1, rule="diembft")
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        qc = builder.store.qc_for(blocks[2].id())
        first = tracker.on_new_qc(qc, now=5.0)
        second = tracker.on_new_qc(qc, now=6.0)
        assert first and second == []
        assert len(tracker.commit_order) == len(first)


class TestStreamletRegularCommit:
    def test_three_chain_commits_middle(self, builder):
        tracker = CommitTracker(builder.store, f=1, rule="streamlet")
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        newly = tracker.on_new_qc(builder.store.qc_for(blocks[2].id()), now=5.0)
        committed_rounds = [event.round for event in newly]
        assert committed_rounds == [0, 1, 2]
        assert blocks[1].id() in tracker.committed
        assert blocks[2].id() not in tracker.committed

    def test_gap_prevents_commit(self, builder):
        tracker = CommitTracker(builder.store, f=1, rule="streamlet")
        blocks = builder.chain(builder.genesis, [1, 3, 4])
        assert tracker.on_new_qc(
            builder.store.qc_for(blocks[2].id()), now=5.0
        ) == []


class TestStrongCommits:
    def _setup(self, builder):
        endorsement = EndorsementTracker(builder.store, mode="round")
        tracker = CommitTracker(
            builder.store, f=1, rule="diembft", endorsement=endorsement
        )
        return endorsement, tracker

    def test_regular_commit_equals_f_strong(self, builder):
        endorsement, tracker = self._setup(builder)
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        for block in blocks:
            qc = builder.store.qc_for(block.id())
            endorsement.add_strong_qc(qc, now=1.0)
            tracker.on_new_qc(qc, now=1.0)
        # Quorum = 3 = 2f+1 endorsers on each → strength f exactly.
        assert tracker.strength_of(blocks[0].id()) == builder.f

    def test_strength_grows_with_extension_qcs(self, builder):
        endorsement, tracker = self._setup(builder)
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        for block in blocks:
            qc = builder.store.qc_for(block.id())
            endorsement.add_strong_qc(qc, now=1.0)
            tracker.on_new_qc(qc, now=1.0)
        # Extend with a block certified by everyone (n = 4 voters).
        tip = builder.block(blocks[-1], 4)
        qc = builder.certify(tip, voters=range(builder.n))
        endorsement.add_strong_qc(qc, now=2.0)
        tracker.on_new_qc(qc, now=2.0)
        tip2 = builder.block(tip, 5)
        qc2 = builder.certify(tip2, voters=range(builder.n))
        endorsement.add_strong_qc(qc2, now=3.0)
        tracker.on_new_qc(qc2, now=3.0)
        tip3 = builder.block(tip2, 6)
        qc3 = builder.certify(tip3, voters=range(builder.n))
        endorsement.add_strong_qc(qc3, now=4.0)
        tracker.on_new_qc(qc3, now=4.0)
        # All four replicas endorse the original 3-chain → 2f-strong.
        assert tracker.strength_of(blocks[0].id()) == 2 * builder.f

    def test_strength_propagates_to_ancestors(self, builder):
        endorsement, tracker = self._setup(builder)
        blocks = builder.chain(builder.genesis, [1, 2, 3, 4, 5])
        for block in blocks:
            qc = builder.certify(block, voters=range(builder.n))
            endorsement.add_strong_qc(qc, now=1.0)
            tracker.on_new_qc(qc, now=1.0)
        # The (3,4,5) triple is 2f-strong; ancestors inherit it.
        assert tracker.strength_of(blocks[0].id()) == 2 * builder.f
        assert tracker.strength_of(builder.genesis.id()) == 2 * builder.f

    def test_strength_timeline_records_first_reach(self, builder):
        endorsement, tracker = self._setup(builder)
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        for index, block in enumerate(blocks):
            qc = builder.store.qc_for(block.id())
            endorsement.add_strong_qc(qc, now=float(index))
            tracker.on_new_qc(qc, now=float(index))
        timeline = tracker.timeline_of(blocks[0].id())
        assert timeline is not None
        assert timeline.first_reached(builder.f) == 2.0

    def test_marker_suppressed_votes_do_not_raise_strength(self, builder_f2):
        builder = builder_f2
        endorsement = EndorsementTracker(builder.store, mode="round")
        tracker = CommitTracker(
            builder.store, f=builder.f, rule="diembft", endorsement=endorsement
        )
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        for block in blocks:
            qc = builder.store.qc_for(block.id())
            endorsement.add_strong_qc(qc, now=1.0)
            tracker.on_new_qc(qc, now=1.0)
        # A descendant QC whose extra votes carry high markers adds no
        # endorsement for the old 3-chain.
        tip = builder.block(blocks[-1], 4)
        extra_voters = range(builder.quorum(), builder.n)
        markers = {voter: 3 for voter in extra_voters}
        voters = list(range(builder.quorum())) + list(extra_voters)
        qc = builder.certify(tip, voters=voters, markers=markers)
        endorsement.add_strong_qc(qc, now=2.0)
        tracker.on_new_qc(qc, now=2.0)
        assert tracker.strength_of(blocks[0].id()) == builder.f


class TestStreamletStrongCommits:
    def test_k_endorsement_strength(self, builder):
        endorsement = EndorsementTracker(builder.store, mode="height")
        tracker = CommitTracker(
            builder.store, f=1, rule="streamlet", endorsement=endorsement
        )
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        for block in blocks:
            qc = builder.certify(block, voters=range(builder.n))
            endorsement.add_strong_qc(qc, now=1.0)
            tracker.on_new_qc(qc, now=1.0)
        tracker.evaluate_strong_commits(now=2.0)
        # Middle block (height 2) has n k-endorsers with k = 2.
        assert tracker.strength_of(blocks[1].id()) == 2 * builder.f
