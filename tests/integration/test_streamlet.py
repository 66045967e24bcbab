"""Streamlet and SFT-Streamlet end-to-end."""

from repro.analysis.invariants import check_prefix_consistency
from repro.runtime.metrics import throughput_txps
from tests.conftest import small_experiment


def streamlet_experiment(**overrides):
    defaults = dict(protocol="streamlet", duration=6.0)
    defaults.update(overrides)
    return small_experiment(**defaults)


class TestStreamlet:
    def test_lock_step_commits(self):
        cluster = streamlet_experiment().build().run()
        for replica in cluster.replicas:
            assert len(replica.commit_tracker.commit_order) > 30

    def test_safety(self):
        cluster = streamlet_experiment().build().run()
        assert not check_prefix_consistency(cluster.replicas)

    def test_votes_are_multicast_and_echoed(self):
        cluster = streamlet_experiment().build().run()
        stats = cluster.network.stats()["by_type"]
        assert stats.get("VoteMsg", 0) > 0
        assert stats.get("EchoMsg", 0) > stats.get("VoteMsg", 0)

    def test_commit_is_middle_of_three_chain(self):
        cluster = streamlet_experiment().build().run()
        replica = cluster.replicas[0]
        last = replica.commit_tracker.commit_order[-1]
        # The committed block's child and the child's child are certified.
        children = replica.store.children(last.block_id)
        assert children
        assert any(
            replica.store.is_certified(child) for child in children
        )

    def test_throughput_positive(self):
        cluster = streamlet_experiment().build().run()
        assert throughput_txps(cluster) > 50


class TestSFTStreamlet:
    def test_strong_commits_progress(self):
        cluster = streamlet_experiment(protocol="sft-streamlet").build().run()
        replica = cluster.replicas[0]
        f = cluster.config.resolved_f()
        reached = [
            timeline.current
            for _, timeline in replica.commit_tracker.timelines()
        ]
        assert reached and max(reached) == 2 * f

    def test_safety(self):
        cluster = streamlet_experiment(protocol="sft-streamlet").build().run()
        assert not check_prefix_consistency(cluster.replicas)

    def test_height_markers_zero_without_forks(self):
        cluster = streamlet_experiment(protocol="sft-streamlet").build().run()
        replica = cluster.replicas[0]
        qc = None
        for event in reversed(replica.commit_tracker.commit_order):
            qc = replica.store.qc_for(event.block_id)
            if qc is not None and qc.votes:
                break
        assert qc is not None
        assert all(vote.marker == 0 for vote in qc.votes)

    def test_strength_same_at_all_replicas_eventually(self):
        cluster = streamlet_experiment(protocol="sft-streamlet").build().run()
        f = cluster.config.resolved_f()
        # A block committed early should be 2f-strong everywhere.
        reference = cluster.replicas[0].commit_tracker.commit_order[5]
        for replica in cluster.replicas:
            timeline = replica.commit_tracker.timeline_of(reference.block_id)
            assert timeline is not None
            assert timeline.current == 2 * f
