"""Markers and generalized intervals from the voting history (§3.2, §3.4)."""

from repro.core.intervals import IntervalSet
from repro.core.strong_vote import VotingHistory
from tests.conftest import intervals_brute_force, marker_brute_force


class TestMarkerComputation:
    def test_fork_free_marker_is_zero(self, builder):
        history = VotingHistory(builder.store, mode="round")
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        for block in blocks:
            assert history.marker_for(block) == 0
            history.record_vote(block)

    def test_marker_after_switching_fork(self, builder):
        base = builder.block(builder.genesis, 1)
        builder.certify(base)
        fork_a = builder.block(base, 2)
        fork_b = builder.block(base, 3)
        history = VotingHistory(builder.store, mode="round")
        history.record_vote(base)
        history.record_vote(fork_a)
        # Voting for the conflicting fork must carry marker = 2.
        assert history.marker_for(fork_b) == 2

    def test_marker_is_max_over_forks(self, builder):
        base = builder.block(builder.genesis, 1)
        fork_a = builder.block(base, 2)
        fork_a2 = builder.block(fork_a, 3)
        fork_b = builder.block(base, 4)
        fork_c = builder.block(base, 5)
        history = VotingHistory(builder.store, mode="round")
        history.record_vote(fork_a)
        history.record_vote(fork_a2)
        history.record_vote(fork_b)
        # fork_c conflicts with both; highest conflicting round is 4.
        assert history.marker_for(fork_c) == max(3, 4)

    def test_marker_ignores_own_ancestors(self, builder):
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        tip = builder.block(blocks[-1], 4)
        history = VotingHistory(builder.store, mode="round")
        for block in blocks:
            history.record_vote(block)
        assert history.marker_for(tip) == 0

    def test_marker_matches_brute_force(self, builder):
        base = builder.block(builder.genesis, 1)
        fork_a = builder.block(base, 2)
        fork_b = builder.block(base, 3)
        fork_b2 = builder.block(fork_b, 4)
        candidate = builder.block(fork_a, 5)
        voted = (base, fork_a, fork_b, fork_b2)
        history = VotingHistory(builder.store, mode="round")
        for block in voted:
            history.record_vote(block)
        assert history.marker_for(candidate) == marker_brute_force(
            builder.store, [block.id() for block in voted], candidate
        )

    def test_height_mode_uses_heights(self, builder):
        base = builder.block(builder.genesis, 1)       # height 1
        fork_a = builder.block(base, 2)                # height 2
        fork_a2 = builder.block(fork_a, 3)             # height 3
        fork_b = builder.block(base, 9)                # height 2
        history = VotingHistory(builder.store, mode="height")
        history.record_vote(fork_a)
        history.record_vote(fork_a2)
        # Highest conflicting *height* is 3 even though rounds reach 3 only.
        assert history.marker_for(fork_b) == 3

    def test_tips_absorb_extended_votes(self, builder):
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        history = VotingHistory(builder.store, mode="round")
        for block in blocks:
            history.record_vote(block)
        assert history.tip_keys() == ((blocks[-1].id(), 3),)

    def test_tips_keep_one_per_fork(self, builder):
        base = builder.block(builder.genesis, 1)
        fork_a = builder.block(base, 2)
        fork_b = builder.block(base, 3)
        history = VotingHistory(builder.store, mode="round")
        history.record_vote(base)
        history.record_vote(fork_a)
        history.record_vote(fork_b)
        assert set(history.tip_keys()) == {(fork_a.id(), 2), (fork_b.id(), 3)}

    def test_highest_voted_round_tracked(self, builder):
        blocks = builder.chain(builder.genesis, [1, 5])
        history = VotingHistory(builder.store, mode="round")
        for block in blocks:
            history.record_vote(block)
        assert history.highest_voted_round == 5


class TestIntervalComputation:
    def test_fork_free_interval_is_full_range(self, builder):
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        history = VotingHistory(builder.store, mode="round")
        for block in blocks[:-1]:
            history.record_vote(block)
        intervals = history.intervals_for(blocks[-1])
        assert intervals == IntervalSet.single(1, 3)

    def test_fork_carves_exclusion_interval(self, builder):
        base = builder.block(builder.genesis, 1)
        fork_a = builder.block(base, 2)
        fork_a2 = builder.block(fork_a, 3)
        main = builder.block(base, 4)
        history = VotingHistory(builder.store, mode="round")
        history.record_vote(base)
        history.record_vote(fork_a)
        history.record_vote(fork_a2)
        # D_F = [base.round + 1, 3] = [2, 3]; I = [1, 4] \ [2, 3].
        intervals = history.intervals_for(main)
        assert intervals == IntervalSet.from_pairs([(1, 1), (4, 4)])

    def test_interval_never_excludes_voted_round(self, builder):
        base = builder.block(builder.genesis, 1)
        fork_a = builder.block(base, 2)
        main = builder.block(base, 3)
        history = VotingHistory(builder.store, mode="round")
        history.record_vote(fork_a)
        intervals = history.intervals_for(main)
        assert main.round in intervals

    def test_window_limits_interval(self, builder):
        blocks = builder.chain(builder.genesis, [1, 2, 3, 4, 5, 6, 7, 8])
        history = VotingHistory(builder.store, mode="round")
        for block in blocks[:-1]:
            history.record_vote(block)
        intervals = history.intervals_for(blocks[-1], window=3)
        assert intervals == IntervalSet.single(5, 8)

    def test_interval_matches_brute_force(self, builder):
        base = builder.block(builder.genesis, 1)
        fork_a = builder.block(base, 2)
        fork_b = builder.block(base, 3)
        fork_b2 = builder.block(fork_b, 5)
        main = builder.block(fork_a, 6)
        voted = (base, fork_a, fork_b, fork_b2)
        history = VotingHistory(builder.store, mode="round")
        for block in voted:
            history.record_vote(block)
        assert history.intervals_for(main) == intervals_brute_force(
            builder.store, [block.id() for block in voted], main
        )

    def test_marker_is_special_case_of_intervals(self, builder):
        # The paper: one marker corresponds to I = [marker + 1, r].
        base = builder.block(builder.genesis, 1)
        fork_a = builder.block(base, 2)
        main = builder.block(base, 3)
        history = VotingHistory(builder.store, mode="round")
        history.record_vote(base)
        history.record_vote(fork_a)
        marker = history.marker_for(main)
        intervals = history.intervals_for(main)
        marker_equivalent = IntervalSet.single(marker + 1, main.round)
        assert marker_equivalent.issubset(intervals)
