"""Protocol edge paths: stale messages, orphans, TC proposals, extremes."""

from repro.analysis.invariants import check_prefix_consistency
from repro.protocols.base import ReplicaConfig
from repro.runtime.config import build_cluster
from tests.conftest import small_experiment


class TestMinimalCluster:
    def test_n4_f1_works(self):
        cluster = build_cluster(
            small_experiment(n=4, duration=6.0)
        ).run()
        assert not check_prefix_consistency(cluster.replicas)
        replica = cluster.replicas[0]
        assert len(replica.commit_tracker.commit_order) > 30
        best = max(
            timeline.current
            for _, timeline in replica.commit_tracker.timelines()
        )
        assert best == 2  # 2f with f = 1

    def test_n4_one_crash_stalls_commits_with_round_robin(self):
        """A real chained-HotStuff liveness subtlety, documented.

        With votes sent to the *next* leader, a crashed replica kills
        both its own led rounds and the rounds whose votes it should
        have collected.  At n = 4 that is 2 of every 4 rounds, so no
        three *consecutive* certified rounds ever exist and the 3-chain
        rule never fires again — rounds keep advancing, QCs keep
        forming, commits stall.  (Theorem 2's honest-leader-window
        assumption implicitly requires n large enough relative to the
        crash pattern.)

        Sync off: the block-sync subsystem's timeout-vote recovery
        closes exactly this gap (tests/integration/test_block_sync.py);
        this test documents the bare protocol's behaviour.
        """
        cluster = build_cluster(
            small_experiment(n=4, duration=10.0, sync_enabled=False),
            crash_schedule=((3, 1.0),),
        ).run()
        survivors = [r for r in cluster.replicas if not r.crashed]
        assert not check_prefix_consistency(survivors)
        replica = survivors[0]
        assert replica.current_round > 40  # rounds still advance
        assert replica.qc_high.round > 40  # QCs still form
        late = [
            event
            for event in replica.commit_tracker.commit_order
            if event.committed_at > 3.0
        ]
        assert late == []  # …but nothing commits

    def test_n4_one_crash_recovers_with_leader_exclusion(self, monkeypatch):
        """Production systems rotate leaders among healthy replicas
        (Diem's leader reputation); excluding the dead replica from
        the rotation restores the consecutive-round window."""
        # Every replica's leader rotation skips 3.
        monkeypatch.setattr(
            ReplicaConfig, "leader_of", lambda self, round_number: round_number % 3
        )
        config = small_experiment(n=4, duration=10.0)
        cluster = build_cluster(config, crash_schedule=((3, 1.0),)).run()
        survivors = [r for r in cluster.replicas if not r.crashed]
        assert not check_prefix_consistency(survivors)
        late = [
            event
            for event in survivors[0].commit_tracker.commit_order
            if event.committed_at > 3.0
        ]
        assert len(late) > 20


class TestStaleMessageHandling:
    def test_stale_proposal_dropped(self):
        cluster = build_cluster(small_experiment(duration=2.0)).run()
        replica = cluster.replicas[0]
        # Re-deliver an old proposal: the replica has moved far past it.
        from repro.types.messages import ProposalMsg

        old_block = None
        for block in replica.store.all_blocks():
            if block.round == 1:
                old_block = block
                break
        assert old_block is not None
        round_before = replica.current_round
        votes_before = replica.metrics.snapshot()["votes_sent"]
        # Rebuild the original proposal message shape.
        proposal = ProposalMsg(
            sender=old_block.proposer, round=old_block.round, block=old_block
        )
        signature = cluster.registry.signing_key(old_block.proposer).sign(
            proposal.signing_payload()
        )
        proposal = ProposalMsg(
            sender=proposal.sender,
            round=proposal.round,
            block=proposal.block,
            signature=signature,
        )
        replica.deliver(old_block.proposer, proposal)
        assert replica.current_round == round_before
        assert replica.metrics.snapshot()["votes_sent"] == votes_before


class TestReorderingAndOrphans:
    def test_high_jitter_reordering_still_safe(self):
        # Jitter larger than the link delay reorders deliveries freely.
        cluster = build_cluster(
            small_experiment(
                duration=8.0, uniform_delay=0.005, jitter=0.02,
                round_timeout=0.8,
            )
        ).run()
        assert not check_prefix_consistency(cluster.replicas)
        for replica in cluster.replicas:
            assert len(replica.commit_tracker.commit_order) > 10

    def test_orphan_buffers_drain(self):
        cluster = build_cluster(
            small_experiment(duration=8.0, uniform_delay=0.005, jitter=0.02,
                             round_timeout=0.8)
        ).run()
        for replica in cluster.replicas:
            # Nothing left waiting on a missing parent at quiescence.
            assert replica.store.orphan_count() <= 1


class TestTimeoutCertificatePath:
    def test_tc_proposals_accepted_after_leader_crash(self):
        cluster = build_cluster(
            small_experiment(duration=10.0), crash_schedule=((1, 0.0),)
        ).run()
        survivors = [r for r in cluster.replicas if not r.crashed]
        assert not check_prefix_consistency(survivors)
        replica = survivors[0]
        # Rounds led by the crashed replica (1, 8, 15, …) are skipped;
        # the chain must contain round gaps bridged by TC proposals.
        committed_rounds = sorted(
            event.round
            for event in replica.commit_tracker.commit_order
            if event.round > 0
        )
        gaps = [
            later - earlier
            for earlier, later in zip(committed_rounds, committed_rounds[1:])
        ]
        assert any(gap > 1 for gap in gaps)
        assert len(committed_rounds) > 20

    def test_backoff_recovers_after_long_partition(self):
        cluster = build_cluster(
            small_experiment(duration=16.0, round_timeout=0.25)
        ).build()
        cluster.network.add_partition(
            [(0, 1, 2, 3), (4, 5, 6)], start=1.0, end=7.0
        )
        cluster.run()
        assert not check_prefix_consistency(cluster.replicas)
        replica = cluster.replicas[0]
        post = [
            event
            for event in replica.commit_tracker.commit_order
            if event.committed_at > 9.0
        ]
        assert len(post) > 10


class TestVerificationToggle:
    def test_unverified_runs_match_verified_runs(self):
        verified = build_cluster(
            small_experiment(duration=4.0, verify_signatures=True)
        ).run()
        unverified = build_cluster(
            small_experiment(duration=4.0, verify_signatures=False)
        ).run()
        commits_a = [
            event.block_id
            for event in verified.replicas[0].commit_tracker.commit_order
        ]
        commits_b = [
            event.block_id
            for event in unverified.replicas[0].commit_tracker.commit_order
        ]
        assert commits_a == commits_b


class TestExtremeWorkloads:
    def test_tiny_blocks(self):
        cluster = build_cluster(
            small_experiment(
                duration=4.0, block_batch_count=1, block_batch_bytes=100
            )
        ).run()
        assert not check_prefix_consistency(cluster.replicas)

    def test_huge_blocks_with_bandwidth(self):
        cluster = build_cluster(
            small_experiment(
                duration=6.0,
                block_batch_count=10_000,
                block_batch_bytes=4_500_000,
                bandwidth_bytes_per_sec=125_000_000,
                round_timeout=2.0,
            )
        ).run()
        assert not check_prefix_consistency(cluster.replicas)
        assert len(cluster.replicas[0].commit_tracker.commit_order) > 5

    def test_long_run_memory_sanity(self):
        cluster = build_cluster(small_experiment(duration=30.0)).run()
        replica = cluster.replicas[0]
        # Nothing accumulates outside the chain itself (that the vote
        # collector releases its buckets is tests/unit/test_vote_collector).
        assert replica.store.orphan_count() == 0
        assert not check_prefix_consistency(cluster.replicas)
