"""Crash and Byzantine fault injection: Theorems 1 and 2 in action."""

from repro.adversary import (
    make_equivocating_leader,
    make_lazy_voter,
    make_silent,
    make_withholding_leader,
)
from repro.analysis.invariants import check_prefix_consistency
from repro.core.resilience import max_strength
from repro.protocols.sft_diembft import SFTDiemBFTReplica
from tests.conftest import small_experiment


def alive(cluster):
    return [replica for replica in cluster.replicas if not replica.crashed]


class TestCrashFaults:
    def test_liveness_with_f_crashes(self):
        # n = 7, f = 2: two crashed replicas must not stop progress.
        config = small_experiment(duration=14.0)
        cluster = config.build(crash_schedule=((5, 0.0), (6, 0.0))).run()
        survivors = alive(cluster)
        assert all(
            len(replica.commit_tracker.commit_order) > 10
            for replica in survivors
        )
        assert not check_prefix_consistency(survivors)

    def test_strength_capped_at_2f_minus_c(self):
        # Theorem 2: with c benign faults the cap is (2f - c)-strong.
        config = small_experiment(duration=14.0)
        cluster = config.build(crash_schedule=((6, 0.0),)).run()
        f = cluster.config.resolved_f()
        best = -1
        for replica in alive(cluster):
            for _, timeline in replica.commit_tracker.timelines():
                best = max(best, timeline.current)
        assert best == 2 * f - 1  # c = 1

    def test_crash_mid_run_prefix_stays_strong(self):
        config = small_experiment(duration=14.0)
        cluster = config.build(crash_schedule=((6, 4.0),)).run()
        f = cluster.config.resolved_f()
        replica = cluster.replicas[0]
        # Blocks committed before the crash reached full 2f strength.
        early = [
            timeline
            for _, timeline in replica.commit_tracker.timelines()
            if timeline.block.created_at < 2.0
            and not timeline.block.is_genesis()
        ]
        assert early
        assert max(timeline.current for timeline in early) == max_strength(f)

    def test_crashed_leader_rounds_time_out(self):
        config = small_experiment(duration=14.0)
        cluster = config.build(crash_schedule=((3, 0.0),)).run()
        survivors = alive(cluster)
        assert any(
            replica.metrics.snapshot()["timeouts_sent"] > 0
            for replica in survivors
        )
        assert not check_prefix_consistency(survivors)
        assert all(
            len(replica.commit_tracker.commit_order) > 10
            for replica in survivors
        )


class TestByzantineBehaviours:
    def test_silent_replicas_slow_strong_commits_only(self):
        config = small_experiment(duration=14.0)
        overrides = {6: make_silent(SFTDiemBFTReplica)}
        cluster = config.build(replica_overrides=overrides).run()
        honest = [r for i, r in enumerate(cluster.replicas) if i != 6]
        assert not check_prefix_consistency(honest)
        f = cluster.config.resolved_f()
        best = -1
        for replica in honest:
            for _, timeline in replica.commit_tracker.timelines():
                best = max(best, timeline.current)
        # One silent replica: cap is 2f - 1, regular commits unaffected.
        assert best == 2 * f - 1
        assert len(honest[0].commit_tracker.commit_order) > 30

    def test_equivocating_leader_cannot_break_safety(self):
        config = small_experiment(duration=14.0)
        overrides = {2: make_equivocating_leader(SFTDiemBFTReplica)}
        cluster = config.build(replica_overrides=overrides).run()
        honest = [r for i, r in enumerate(cluster.replicas) if i != 2]
        assert not check_prefix_consistency(honest)
        assert len(honest[0].commit_tracker.commit_order) > 20

    def test_equivocation_raises_markers(self):
        config = small_experiment(duration=14.0)
        overrides = {2: make_equivocating_leader(SFTDiemBFTReplica)}
        cluster = config.build(replica_overrides=overrides).run()
        honest = [r for i, r in enumerate(cluster.replicas) if i != 2]
        # Some honest replica voted across the fork and carries a marker.
        forked = [
            replica
            for replica in honest
            if len(replica.voting_history.tip_keys()) > 1
            or replica.voting_history.marker_for(
                replica.store.highest_certified_block()
            )
            > 0
        ]
        assert forked

    def test_withholding_leader_triggers_timeouts_but_progress(self):
        config = small_experiment(duration=14.0)
        overrides = {4: make_withholding_leader(SFTDiemBFTReplica, reach=0.3)}
        cluster = config.build(replica_overrides=overrides).run()
        honest = [r for i, r in enumerate(cluster.replicas) if i != 4]
        assert not check_prefix_consistency(honest)
        assert len(honest[0].commit_tracker.commit_order) > 10

    def test_lazy_voter_excluded_from_qcs(self):
        config = small_experiment(duration=14.0)
        overrides = {6: make_lazy_voter(SFTDiemBFTReplica, delay=1.0)}
        cluster = config.build(replica_overrides=overrides).run()
        honest = [r for i, r in enumerate(cluster.replicas) if i != 6]
        assert not check_prefix_consistency(honest)
        # The straggler's votes arrive after QCs form, so high-strength
        # commits stall below 2f.
        f = cluster.config.resolved_f()
        replica = honest[0]
        settled = replica.commit_tracker.commit_order[5:30]
        tops = [
            replica.commit_tracker.timeline_of(event.block_id).current
            for event in settled
        ]
        assert max(tops) <= 2 * f - 1

    def test_two_silent_replicas_cap_at_2f_minus_2(self):
        config = small_experiment(duration=14.0)
        silent = make_silent(SFTDiemBFTReplica)
        cluster = config.build(replica_overrides={5: silent, 6: silent}).run()
        honest = [r for i, r in enumerate(cluster.replicas) if i not in (5, 6)]
        f = cluster.config.resolved_f()
        best = -1
        for replica in honest:
            for _, timeline in replica.commit_tracker.timelines():
                best = max(best, timeline.current)
        assert best == 2 * f - 2
