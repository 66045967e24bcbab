"""DiemBFT end-to-end over the simulated network."""

from repro.analysis.invariants import check_prefix_consistency
from repro.runtime.metrics import (
    regular_commit_latency,
    throughput_txps,
)
from tests.conftest import small_experiment


class TestHappyPath:
    def test_commits_progress_on_all_replicas(self):
        cluster = small_experiment(protocol="diembft").build().run()
        for replica in cluster.replicas:
            assert len(replica.commit_tracker.commit_order) > 50

    def test_safety_across_replicas(self):
        cluster = small_experiment(protocol="diembft").build().run()
        assert not check_prefix_consistency(cluster.replicas)

    def test_rounds_advance_without_timeouts(self):
        cluster = small_experiment(protocol="diembft").build().run()
        for replica in cluster.replicas:
            assert replica.metrics.snapshot()["timeouts_sent"] == 0
            assert replica.current_round > 100

    def test_commit_latency_about_three_round_trips(self):
        cluster = small_experiment(protocol="diembft").build().run()
        mean, count = regular_commit_latency(cluster)
        assert count > 100
        # Round ≈ 2 × 10 ms + jitter; 3-chain + QC dissemination ≈ 4 rounds.
        assert 0.04 < mean < 0.2

    def test_throughput_positive(self):
        cluster = small_experiment(protocol="diembft").build().run()
        assert throughput_txps(cluster) > 100

    def test_leaders_rotate_round_robin(self):
        cluster = small_experiment(protocol="diembft").build().run()
        replica = cluster.replicas[0]
        committed = replica.commit_tracker.commit_order
        proposers = set()
        for event in committed:
            block = replica.store.get(event.block_id)
            if not block.is_genesis():
                proposers.add(block.proposer)
                assert block.proposer == block.round % cluster.config.n
        assert proposers == set(range(cluster.config.n))

    def test_chains_are_consistent_prefixes(self):
        cluster = small_experiment(protocol="diembft").build().run()
        sequences = []
        for replica in cluster.replicas:
            sequences.append(
                [event.block_id for event in replica.commit_tracker.commit_order]
            )
        shortest = min(len(seq) for seq in sequences)
        reference = sequences[0][:shortest]
        for sequence in sequences[1:]:
            assert sequence[:shortest] == reference

    def test_deterministic_given_seed(self):
        run_a = small_experiment(protocol="diembft").build().run()
        run_b = small_experiment(protocol="diembft").build().run()
        commits_a = [
            event.block_id
            for event in run_a.replicas[0].commit_tracker.commit_order
        ]
        commits_b = [
            event.block_id
            for event in run_b.replicas[0].commit_tracker.commit_order
        ]
        assert commits_a == commits_b

    def test_different_seed_changes_schedule(self):
        run_a = small_experiment(protocol="diembft", seed=1).build().run()
        run_b = small_experiment(protocol="diembft", seed=2).build().run()
        # Jitter reshuffles vote-arrival races, so QC membership across
        # the run differs even though block contents do not.
        def memberships(cluster):
            replica = cluster.replicas[0]
            return [
                tuple(sorted(replica.store.qc_for(event.block_id).voters()))
                for event in replica.commit_tracker.commit_order[:100]
                if replica.store.qc_for(event.block_id) is not None
                and event.round > 0
            ]

        assert memberships(run_a) != memberships(run_b)


class TestValidation:
    def test_invalid_signatures_rejected(self):
        # Run with signature verification on and a forged message inject.
        cluster = small_experiment(protocol="diembft").build().build()
        replica = cluster.replicas[0]
        from repro.types.messages import VoteMsg
        from repro.types.vote import Vote

        forged = Vote(
            block_id=replica.genesis.id(),
            block_round=1,
            height=1,
            voter=3,
            signature=None,
        )
        replica.deliver(3, VoteMsg(sender=3, vote=forged))
        assert replica.metrics.snapshot()["invalid_messages"] == 1

    def test_wrong_leader_proposal_rejected(self):
        cluster = small_experiment(protocol="diembft").build().build()
        replica = cluster.replicas[0]
        from repro.types.block import Block
        from repro.types.messages import ProposalMsg

        block = Block(
            parent_id=replica.genesis.id(),
            qc=replica.qc_high,
            round=1,
            height=1,
            proposer=5,  # leader of round 1 is replica 1
        )
        replica.deliver(5, ProposalMsg(sender=5, round=1, block=block))
        assert replica.metrics.snapshot()["invalid_messages"] == 1

    def test_mismatched_sender_rejected(self):
        cluster = small_experiment(protocol="diembft").build().build()
        replica = cluster.replicas[0]
        from repro.types.block import Block
        from repro.types.messages import ProposalMsg

        block = Block(
            parent_id=replica.genesis.id(),
            qc=replica.qc_high,
            round=1,
            height=1,
            proposer=1,
        )
        replica.deliver(2, ProposalMsg(sender=1, round=1, block=block))
        assert replica.metrics.snapshot()["invalid_messages"] == 1
