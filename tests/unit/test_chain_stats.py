"""Chain statistics collection."""

from repro.analysis.chain_stats import collect_chain_stats
from tests.conftest import small_experiment


class TestChainStats:
    def test_clean_run_statistics(self):
        cluster = small_experiment(duration=6.0).build().run()
        stats = collect_chain_stats(cluster.replicas[0])
        assert stats.blocks_committed > 30
        assert stats.blocks_total >= stats.blocks_committed
        assert stats.skipped_rounds == 0
        assert stats.fork_blocks == 0  # fresh tip blocks are not forks
        assert stats.committed_rounds > 0.9 * stats.max_round
        assert 0.0 <= stats.qc_diversity <= 1.0
        # Quorum is 5 of 7 and extra votes are not folded in.
        assert 5.0 <= stats.mean_qc_size <= 7.0

    def test_crash_run_has_skipped_rounds(self):
        cluster = small_experiment(duration=10.0).build(
            crash_schedule=((3, 0.0),)
        ).run()
        stats = collect_chain_stats(cluster.replicas[0])
        assert stats.skipped_rounds > 0
        assert stats.committed_rounds < stats.max_round

    def test_diversity_increases_with_jitter(self):
        still = small_experiment(duration=6.0, jitter=0.0).build().run()
        jittery = small_experiment(duration=6.0, jitter=0.004).build().run()
        stats_still = collect_chain_stats(still.replicas[0])
        stats_jittery = collect_chain_stats(jittery.replicas[0])
        assert stats_jittery.qc_diversity >= stats_still.qc_diversity

    def test_fork_depth_zero_without_equivocation(self):
        cluster = small_experiment(duration=6.0).build().run()
        stats = collect_chain_stats(cluster.replicas[0])
        assert stats.max_fork_depth == 0

    def test_forks_detected_under_equivocation(self):
        from repro.adversary import make_equivocating_leader
        from repro.protocols.sft_diembft import SFTDiemBFTReplica

        cluster = small_experiment(duration=8.0).build(
            replica_overrides={2: make_equivocating_leader(SFTDiemBFTReplica)}
        ).run()
        stats = collect_chain_stats(cluster.replicas[0])
        assert stats.fork_blocks > 0
        assert stats.max_fork_depth >= 1
