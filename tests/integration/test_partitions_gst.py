"""Partial synchrony: GST, partitions, recovery."""

from repro.analysis.invariants import check_prefix_consistency
from repro.runtime.config import build_cluster
from tests.conftest import small_experiment


class TestGST:
    def test_progress_resumes_after_gst(self):
        # Messages sent before GST = 3 s crawl; afterwards normal.
        config = small_experiment(
            duration=12.0, gst=3.0, pre_gst_delay=0.4, round_timeout=0.3
        )
        cluster = build_cluster(config).run()
        assert not check_prefix_consistency(cluster.replicas)
        replica = cluster.replicas[0]
        post_gst_commits = [
            event
            for event in replica.commit_tracker.commit_order
            if event.committed_at > 4.0
        ]
        assert len(post_gst_commits) > 50

    def test_no_conflicting_commits_across_gst(self):
        config = small_experiment(
            duration=10.0, gst=2.0, pre_gst_delay=0.5, round_timeout=0.25
        )
        cluster = build_cluster(config).run()
        assert not check_prefix_consistency(cluster.replicas)


class TestPartitions:
    def test_minority_partition_stalls_then_recovers(self):
        config = small_experiment(duration=14.0, round_timeout=0.3)
        cluster = build_cluster(config).build()
        # 2 replicas cut off from the 5-replica majority for 4 seconds.
        cluster.network.add_partition(
            [(0, 1, 2, 3, 4), (5, 6)], start=2.0, end=6.0
        )
        cluster.run()
        assert not check_prefix_consistency(cluster.replicas)
        majority_commits = len(cluster.replicas[0].commit_tracker.commit_order)
        minority_commits = len(cluster.replicas[5].commit_tracker.commit_order)
        assert majority_commits > 50
        # The minority catches up after healing (held messages flush).
        assert minority_commits > 40

    def test_split_quorum_partition_halts_commits(self):
        config = small_experiment(duration=10.0, round_timeout=0.3)
        cluster = build_cluster(config).build()
        # 4/3 split: neither side has 2f+1 = 5 replicas.
        cluster.network.add_partition(
            [(0, 1, 2, 3), (4, 5, 6)], start=2.0, end=8.0
        )
        cluster.run()
        assert not check_prefix_consistency(cluster.replicas)
        replica = cluster.replicas[0]
        during = [
            event
            for event in replica.commit_tracker.commit_order
            if 2.5 < event.committed_at < 7.5
        ]
        # No quorum, no commits inside the window (allow boundary noise).
        assert len(during) <= 2

    def test_commits_resume_after_heal(self):
        config = small_experiment(duration=14.0, round_timeout=0.3)
        cluster = build_cluster(config).build()
        cluster.network.add_partition(
            [(0, 1, 2, 3), (4, 5, 6)], start=2.0, end=6.0
        )
        cluster.run()
        replica = cluster.replicas[0]
        after = [
            event
            for event in replica.commit_tracker.commit_order
            if event.committed_at > 7.0
        ]
        assert len(after) > 20
        assert not check_prefix_consistency(cluster.replicas)
