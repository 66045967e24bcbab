"""SFT-DiemBFT end-to-end: strong commits, markers, endorsements."""

from repro.analysis.invariants import check_prefix_consistency
from repro.core.resilience import max_strength
from repro.runtime.metrics import (
    regular_commit_latency,
    strong_commit_latency,
    strong_latency_series,
    throughput_txps,
)
from tests.conftest import small_experiment


class TestStrongCommitProgress:
    def test_blocks_reach_max_strength(self):
        cluster = small_experiment().build().run()
        replica = cluster.replicas[0]
        f = cluster.config.resolved_f()
        top = max_strength(f)
        reached = [
            timeline.current
            for _, timeline in replica.commit_tracker.timelines()
        ]
        assert max(reached) == top
        # Most settled blocks should be at max strength.
        assert sum(1 for level in reached if level == top) > 50

    def test_f_strong_time_equals_regular_commit_time(self):
        cluster = small_experiment().build().run()
        replica = cluster.replicas[0]
        f = cluster.config.resolved_f()
        checked = 0
        for event in replica.commit_tracker.commit_order:
            timeline = replica.commit_tracker.timeline_of(event.block_id)
            if timeline is None or event.round == 0:
                continue
            assert timeline.first_reached(f) == event.committed_at
            checked += 1
        assert checked > 50

    def test_latency_monotone_in_strength(self):
        cluster = small_experiment(duration=10.0).build().run()
        series = strong_latency_series(
            cluster, ratios=(1.0, 1.5, 2.0), created_before=6.0
        )
        latencies = [point.mean_latency for point in series]
        assert all(lat is not None for lat in latencies)
        assert latencies[0] <= latencies[1] <= latencies[2]

    def test_markers_zero_in_fork_free_run(self):
        cluster = small_experiment().build().run()
        for replica in cluster.replicas:
            tip = replica.store.highest_certified_block()
            assert replica.voting_history.marker_for(tip) == 0

    def test_strong_qc_carries_markers(self):
        cluster = small_experiment().build().run()
        replica = cluster.replicas[0]
        qc = replica.qc_high
        assert qc.votes
        assert all(vote.marker == 0 for vote in qc.votes)

    def test_safety_and_throughput(self):
        cluster = small_experiment().build().run()
        assert not check_prefix_consistency(cluster.replicas)
        assert throughput_txps(cluster) > 100

    def test_same_throughput_as_plain_diembft(self):
        # The paper: SFT overhead (one marker) leaves throughput intact.
        sft = small_experiment().build().run()
        plain = small_experiment(protocol="diembft").build().run()
        tput_sft = throughput_txps(sft)
        tput_plain = throughput_txps(plain)
        assert abs(tput_sft - tput_plain) / tput_plain < 0.02

    def test_strength_capped_at_2f(self):
        cluster = small_experiment().build().run()
        f = cluster.config.resolved_f()
        for replica in cluster.replicas:
            for _, timeline in replica.commit_tracker.timelines():
                assert timeline.current <= 2 * f


class TestObserverFlag:
    def test_non_observers_skip_bookkeeping(self):
        cluster = small_experiment(observers=(0, 1)).build().run()
        assert cluster.replicas[0].endorsement is not None
        assert cluster.replicas[5].endorsement is None
        # Protocol behaviour is identical: same commits everywhere.
        commits_observer = [
            event.block_id
            for event in cluster.replicas[0].commit_tracker.commit_order
        ]
        commits_plain = [
            event.block_id
            for event in cluster.replicas[5].commit_tracker.commit_order
        ]
        shared = min(len(commits_observer), len(commits_plain))
        assert commits_observer[:shared] == commits_plain[:shared]
        assert shared > 50

    def test_observer_strong_latency_only_from_observers(self):
        cluster = small_experiment(observers=(0,)).build().run()
        mean, samples, eligible = strong_commit_latency(
            cluster, level=cluster.config.resolved_f()
        )
        assert samples == eligible > 0
        assert mean is not None


class TestExtraWait:
    def test_extra_wait_enlarges_qcs(self):
        base = small_experiment().build().run()
        waited = small_experiment(qc_extra_wait=0.05).build().run()
        assert len(waited.replicas[0].qc_high.votes) > len(
            base.replicas[0].qc_high.votes
        )

    def test_extra_wait_increases_regular_latency(self):
        base = small_experiment(duration=6.0).build().run()
        waited = small_experiment(duration=6.0, qc_extra_wait=0.05).build().run()
        lat_base, _ = regular_commit_latency(base, created_before=4.0)
        lat_waited, _ = regular_commit_latency(waited, created_before=4.0)
        assert lat_waited > lat_base

    def test_extra_wait_speeds_up_max_strength(self):
        base = small_experiment(duration=6.0).build().run()
        waited = small_experiment(duration=6.0, qc_extra_wait=0.05).build().run()
        f = base.config.resolved_f()
        top = max_strength(f)
        strong_base, _, _ = strong_commit_latency(
            base, level=top, created_before=4.0
        )
        strong_waited, _, _ = strong_commit_latency(
            waited, level=top, created_before=4.0
        )
        assert strong_waited is not None and strong_base is not None
        # With full QCs, 2f-strong coincides with the regular 3-chain.
        lat_waited, _ = regular_commit_latency(waited, created_before=4.0)
        assert abs(strong_waited - lat_waited) < 1e-6
        del strong_base


class TestGeneralizedIntervals:
    def test_interval_votes_flow_end_to_end(self):
        cluster = small_experiment(generalized_intervals=True).build().run()
        assert not check_prefix_consistency(cluster.replicas)
        replica = cluster.replicas[0]
        qc = replica.qc_high
        assert all(vote.intervals for vote in qc.votes)
        # Fork-free: I = [1, r].
        vote = qc.votes[0]
        assert vote.intervals[0][0] == 1
        assert vote.intervals[-1][1] == vote.block_round

    def test_interval_mode_reaches_max_strength(self):
        cluster = small_experiment(generalized_intervals=True).build().run()
        f = cluster.config.resolved_f()
        replica = cluster.replicas[0]
        reached = [
            timeline.current
            for _, timeline in replica.commit_tracker.timelines()
        ]
        assert max(reached) == 2 * f

    def test_windowed_intervals(self):
        cluster = small_experiment(
            generalized_intervals=True, interval_window=5
        ).build().run()
        replica = cluster.replicas[0]
        vote = replica.qc_high.votes[0]
        lo = vote.intervals[0][0]
        assert lo >= vote.block_round - 5
