"""Endorsement tracking: definitions, early-stop walks, k-endorsements."""

from repro.core.endorsement import EndorsementTracker
from tests.conftest import BruteForceEndorsementOracle


class TestDirectEndorsement:
    def test_direct_vote_endorses_own_block(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        block = builder.block(builder.genesis, 1)
        tracker.add_vote(builder.vote(block, voter=0))
        assert tracker.count(block.id()) == 1
        assert 0 in tracker.endorsers(block.id())

    def test_duplicate_votes_counted_once(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        block = builder.block(builder.genesis, 1)
        tracker.add_vote(builder.vote(block, voter=0))
        tracker.add_vote(builder.vote(block, voter=0))
        assert tracker.count(block.id()) == 1

    def test_vote_for_unknown_block_skipped(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        block = builder.block(builder.genesis, 1)
        other_builder_block = builder.block(block, 2)
        del other_builder_block
        from repro.types.vote import StrongVote
        from repro.crypto.hashing import hash_bytes

        phantom = StrongVote(
            block_id=hash_bytes(b"nowhere"),
            block_round=9,
            height=9,
            voter=1,
        )
        tracker.add_vote(phantom)
        assert tracker.skipped_votes == 1


class TestIndirectEndorsement:
    def test_marker_zero_endorses_all_ancestors(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        tracker.add_vote(builder.vote(blocks[-1], voter=4, marker=0))
        for block in blocks:
            assert 4 in tracker.endorsers(block.id())

    def test_marker_blocks_low_round_ancestors(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        blocks = builder.chain(builder.genesis, [1, 2, 3, 4])
        tracker.add_vote(builder.vote(blocks[-1], voter=4, marker=2))
        # Endorses rounds 3 and 4 (marker < round), not rounds 1 and 2.
        assert 4 in tracker.endorsers(blocks[3].id())
        assert 4 in tracker.endorsers(blocks[2].id())
        assert 4 not in tracker.endorsers(blocks[1].id())
        assert 4 not in tracker.endorsers(blocks[0].id())

    def test_qc_feeds_all_votes(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        blocks = builder.chain(builder.genesis, [1, 2])
        qc = builder.store.qc_for(blocks[1].id())
        tracker.add_strong_qc(qc)
        assert tracker.count(blocks[0].id()) == builder.quorum()

    def test_qc_reprocessing_is_noop(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        blocks = builder.chain(builder.genesis, [1, 2])
        qc = builder.store.qc_for(blocks[1].id())
        tracker.add_strong_qc(qc)
        count = tracker.count(blocks[0].id())
        tracker.add_strong_qc(qc)
        assert tracker.count(blocks[0].id()) == count

    def test_listener_fires_on_growth(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        events = []
        tracker.add_listener(
            lambda block, count, now: events.append((block.round, count))
        )
        block = builder.block(builder.genesis, 1)
        tracker.add_vote(builder.vote(block, voter=0))
        tracker.add_vote(builder.vote(block, voter=1))
        assert events == [(1, 1), (1, 2)]

    def test_fork_votes_do_not_endorse_other_branch(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        base = builder.block(builder.genesis, 1)
        main = builder.block(base, 2)
        fork = builder.block(base, 3)
        tracker.add_vote(builder.vote(fork, voter=5, marker=0))
        assert 5 not in tracker.endorsers(main.id())
        assert 5 in tracker.endorsers(base.id())


class TestEarlyStopExactness:
    def test_matches_oracle_on_forked_history(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        oracle = BruteForceEndorsementOracle(builder.store, mode="round")
        base = builder.block(builder.genesis, 1)
        main = [base] + [builder.block(base, 2)]
        main.append(builder.block(main[-1], 3))
        fork = builder.block(base, 4)
        fork2 = builder.block(fork, 5)
        votes = [
            builder.vote(main[1], voter=0, marker=0),
            builder.vote(main[2], voter=0, marker=0),
            builder.vote(fork, voter=0, marker=3),
            builder.vote(fork2, voter=0, marker=3),
            builder.vote(fork2, voter=1, marker=0),
            builder.vote(main[2], voter=2, marker=4),
        ]
        for vote in votes:
            tracker.add_vote(vote)
            oracle.add_vote(vote)
        for block in builder.store.all_blocks():
            if block.is_genesis():
                continue
            assert tracker.endorsers(block.id()) == oracle.endorsers(
                block.id()
            ), f"mismatch at round {block.round}"

    def test_decreasing_marker_reprocesses_deeper(self, builder):
        # A later vote with a *smaller* marker must extend coverage.
        tracker = EndorsementTracker(builder.store, mode="round")
        blocks = builder.chain(builder.genesis, [1, 2, 3, 4, 5])
        tracker.add_vote(builder.vote(blocks[3], voter=7, marker=3))
        assert 7 not in tracker.endorsers(blocks[1].id())
        tracker.add_vote(builder.vote(blocks[4], voter=7, marker=0))
        assert 7 in tracker.endorsers(blocks[1].id())
        assert 7 in tracker.endorsers(blocks[0].id())


class TestKEndorsement:
    def test_k_endorsers_vary_with_threshold(self, builder):
        tracker = EndorsementTracker(builder.store, mode="height")
        blocks = builder.chain(builder.genesis, [1, 2, 3])  # heights 1..3
        tracker.add_vote(builder.vote(blocks[-1], voter=3, marker=2))
        # marker < k: k = 3 yes; k = 2 no.
        assert 3 in tracker.endorsers_at(blocks[0].id(), 3)
        assert 3 not in tracker.endorsers_at(blocks[0].id(), 2)

    def test_direct_vote_k_endorses_regardless_of_marker(self, builder):
        tracker = EndorsementTracker(builder.store, mode="height")
        block = builder.block(builder.genesis, 1)
        tracker.add_vote(builder.vote(block, voter=2, marker=99))
        assert 2 in tracker.endorsers_at(block.id(), 1)
        assert 2 in tracker.endorsers_at(block.id(), 50)

    def test_count_at_matches_oracle(self, builder):
        tracker = EndorsementTracker(builder.store, mode="height")
        oracle = BruteForceEndorsementOracle(builder.store, mode="height")
        base = builder.block(builder.genesis, 1)
        main = builder.block(base, 2)
        fork = builder.block(base, 3)
        votes = [
            builder.vote(main, voter=0, marker=0),
            builder.vote(fork, voter=0, marker=2),
            builder.vote(fork, voter=1, marker=0),
        ]
        for vote in votes:
            tracker.add_vote(vote)
            oracle.add_vote(vote)
        for block in builder.store.all_blocks():
            if block.is_genesis():
                continue
            for k in range(1, 5):
                assert tracker.count_at(block.id(), k) == oracle.count(
                    block.id(), k
                ), f"k={k} round={block.round}"


class TestIntervalVotes:
    def test_interval_vote_endorses_inside_intervals_only(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        blocks = builder.chain(builder.genesis, [1, 2, 3, 4, 5])
        vote = builder.vote(
            blocks[-1], voter=6, marker=4, intervals=((1, 2), (5, 5))
        )
        tracker.add_vote(vote)
        assert 6 in tracker.endorsers(blocks[0].id())  # round 1
        assert 6 in tracker.endorsers(blocks[1].id())  # round 2
        assert 6 not in tracker.endorsers(blocks[2].id())  # round 3
        assert 6 not in tracker.endorsers(blocks[3].id())  # round 4
        assert 6 in tracker.endorsers(blocks[4].id())  # round 5 (direct too)

    def test_interval_votes_match_oracle(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        oracle = BruteForceEndorsementOracle(builder.store, mode="round")
        blocks = builder.chain(builder.genesis, [1, 2, 3, 4])
        votes = [
            builder.vote(blocks[2], voter=0, intervals=((2, 3),)),
            builder.vote(blocks[3], voter=0, intervals=((1, 1), (4, 4))),
            builder.vote(blocks[3], voter=1, intervals=((1, 4),)),
        ]
        for vote in votes:
            tracker.add_vote(vote)
            oracle.add_vote(vote)
        for block in blocks:
            assert tracker.endorsers(block.id()) == oracle.endorsers(
                block.id()
            ), f"round {block.round}"

    def test_interval_union_accumulates(self, builder):
        tracker = EndorsementTracker(builder.store, mode="round")
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        tracker.add_vote(
            builder.vote(blocks[2], voter=0, intervals=((3, 3),))
        )
        assert 0 not in tracker.endorsers(blocks[0].id())
        tracker.add_vote(
            builder.vote(blocks[2], voter=0, intervals=((1, 1),))
        )
        assert 0 in tracker.endorsers(blocks[0].id())
