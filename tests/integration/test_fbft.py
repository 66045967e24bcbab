"""FBFT-adapted baseline (Appendix B): direct votes, quadratic messages."""

from repro.analysis.invariants import check_prefix_consistency
from tests.conftest import small_experiment


class TestFBFTBehaviour:
    def test_commits_and_safety(self):
        cluster = small_experiment(protocol="fbft").build().run()
        assert not check_prefix_consistency(cluster.replicas)
        assert len(cluster.replicas[0].commit_tracker.commit_order) > 50

    def test_extra_votes_are_multicast(self):
        cluster = small_experiment(protocol="fbft").build().run()
        total_extra = sum(
            replica.extra_vote_multicasts for replica in cluster.replicas
        )
        assert total_extra > 0
        assert cluster.network.sent_by_type.get("ExtraVotesMsg", 0) > 0

    def test_direct_vote_counts_reach_n(self):
        cluster = small_experiment(protocol="fbft").build().run()
        replica = cluster.replicas[0]
        n = cluster.config.n
        counts = [
            replica.direct_votes.count(event.block_id)
            for event in replica.commit_tracker.commit_order[10:50]
        ]
        assert max(counts) == n

    def test_strength_from_direct_votes_only(self):
        cluster = small_experiment(protocol="fbft").build().run()
        replica = cluster.replicas[0]
        f = cluster.config.resolved_f()
        settled = replica.commit_tracker.commit_order[10:50]
        for event in settled:
            timeline = replica.commit_tracker.timeline_of(event.block_id)
            assert timeline is not None
            assert timeline.current == 2 * f

    def test_more_messages_than_sft(self):
        fbft = small_experiment(protocol="fbft").build().run()
        sft = small_experiment(protocol="sft-diembft").build().run()
        fbft_blocks = len(fbft.replicas[0].commit_tracker.commit_order)
        sft_blocks = len(sft.replicas[0].commit_tracker.commit_order)
        fbft_per_block = fbft.network.messages_sent / fbft_blocks
        sft_per_block = sft.network.messages_sent / sft_blocks
        # n=7: SFT ≈ 2n per block; FBFT adds up to (n-quorum)·n ≈ 14.
        assert fbft_per_block > sft_per_block * 1.5

    def test_fbft_strong_commits_faster_than_sft(self):
        # The trade-off: FBFT buys fast 2f-strong commits with O(n²) traffic.
        from repro.runtime.metrics import strong_commit_latency

        fbft = small_experiment(protocol="fbft", duration=6.0).build().run()
        sft = small_experiment(protocol="sft-diembft", duration=6.0).build().run()
        f = fbft.config.resolved_f()
        fbft_latency, _, _ = strong_commit_latency(
            fbft, level=2 * f, created_before=4.0
        )
        sft_latency, _, _ = strong_commit_latency(
            sft, level=2 * f, created_before=4.0
        )
        assert fbft_latency < sft_latency
