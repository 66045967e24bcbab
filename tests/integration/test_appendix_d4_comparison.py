"""Appendix D.4: the cost of reverting a strong commit.

DiemBFT's round-based rules let honest replicas vote for any block
whose parent clears their round lock — so once an adversary (briefly
controlling more than x replicas) certifies a *single* conflicting
block at a higher round, honest replicas will extend that fork
unassisted.  Streamlet's height-based rules instead make honest
replicas vote only for extensions of a *longest certified chain*: a
one-block fork is simply ignored, and the adversary must keep
certifying blocks for about ``h`` rounds to regrow a competitive
chain.

These tests probe the exact voting rules that create the asymmetry.
"""

from repro.protocols.base import ReplicaConfig
from repro.protocols.sft_diembft import SFTDiemBFTReplica
from repro.protocols.sft_streamlet import SFTStreamletReplica
from repro.protocols.streamlet import StreamletConfig
from repro.runtime.config import build_cluster
from repro.types.block import Block
from repro.types.messages import ProposalMsg
from repro.types.quorum_cert import QuorumCertificate
from repro.types.vote import StrongVote
from tests.conftest import ancestor_at_height, make_isolated_replica, small_experiment


def adversarial_qc(registry, block, n):
    """A fully signed QC for ``block`` (the adversary's fork cert)."""
    votes = []
    for voter in range(2 * ((n - 1) // 3) + 1):
        vote = StrongVote(
            block_id=block.id(),
            block_round=block.round,
            height=block.height,
            voter=voter,
        )
        signature = registry.signing_key(voter).sign(vote.signing_payload())
        votes.append(
            StrongVote(
                block_id=vote.block_id,
                block_round=vote.block_round,
                height=vote.height,
                voter=vote.voter,
                marker=0,
                signature=signature,
            )
        )
    return QuorumCertificate(
        block_id=block.id(),
        round=block.round,
        height=block.height,
        votes=tuple(votes),
    )


class TestDiemBFTOneBlockRevert:
    def test_honest_replica_votes_on_single_block_fork(self):
        """A lone higher-round certified fork block attracts honest votes."""
        config = ReplicaConfig(n=4, f=1, round_timeout=10.0)
        replica, registry, _, _ = make_isolated_replica(SFTDiemBFTReplica, config)
        replica.start()

        # Main chain: rounds 1..4 (replica locks on round 3's parent…
        # i.e. r_lock follows two behind the tip).
        parent = replica.genesis
        parent_qc = replica.store.qc_for(parent.id())
        for round_number in range(1, 5):
            block = Block(
                parent_id=parent.id(),
                qc=parent_qc,
                round=round_number,
                height=parent.height + 1,
                proposer=config.leader_of(round_number),
            )
            replica.store.add_block(block)
            parent_qc = adversarial_qc(registry, block, config.n)
            replica._process_qc(parent_qc, now=0.0)
            parent = block

        assert replica.r_lock == 3  # parent of the highest certified block

        # The adversary certifies ONE conflicting block at a higher
        # round, forking from round 3 (satisfying honest locks).
        fork_base = ancestor_at_height(replica.store, parent.id(), 3)
        fork_qc_parent = replica.store.qc_for(fork_base.id())
        fork_block = Block(
            parent_id=fork_base.id(),
            qc=fork_qc_parent,
            round=6,
            height=fork_base.height + 1,
            proposer=config.leader_of(6),
        )
        replica.store.add_block(fork_block)
        fork_qc = adversarial_qc(registry, fork_block, config.n)
        replica._process_qc(fork_qc, now=0.0)

        # An honest leader now proposes extending the fork; the honest
        # replica's voting rule accepts it (parent round 6 >= lock 3).
        extension = Block(
            parent_id=fork_block.id(),
            qc=fork_qc,
            round=7,
            height=fork_block.height + 1,
            proposer=config.leader_of(7),
        )
        proposal = ProposalMsg(
            sender=config.leader_of(7), round=7, block=extension
        )
        replica.store.add_block(extension)
        votes_before = replica.metrics.snapshot()["votes_sent"]
        replica._maybe_vote(proposal)
        assert replica.metrics.snapshot()["votes_sent"] == votes_before + 1


class TestStreamletNeedsCompetitiveChain:
    def _replica_with_main_chain(self, length):
        config = StreamletConfig(n=4, f=1, round_duration=1000.0)
        replica, registry, _, _ = make_isolated_replica(
            SFTStreamletReplica, config
        )
        parent = replica.genesis
        parent_qc = replica.store.qc_for(parent.id())
        for round_number in range(1, length + 1):
            block = Block(
                parent_id=parent.id(),
                qc=parent_qc,
                round=round_number,
                height=parent.height + 1,
                proposer=config.leader_of(round_number),
            )
            replica.store.add_block(block)
            parent_qc = adversarial_qc(registry, block, config.n)
            replica._process_qc(parent_qc, now=0.0)
            parent = block
        return replica, registry, config, parent

    def test_single_fork_block_is_not_votable(self):
        """A 1-block certified fork is shorter than the main chain."""
        replica, registry, config, tip = self._replica_with_main_chain(5)
        fork_base = ancestor_at_height(replica.store, tip.id(), 2)
        fork_block = Block(
            parent_id=fork_base.id(),
            qc=replica.store.qc_for(fork_base.id()),
            round=7,
            height=fork_base.height + 1,
            proposer=config.leader_of(7),
        )
        replica.store.add_block(fork_block)
        replica._process_qc(
            adversarial_qc(registry, fork_block, config.n), now=0.0
        )
        # Extending the fork (height 4 < longest certified 5 + 1)…
        extension = Block(
            parent_id=fork_block.id(),
            qc=replica.store.qc_for(fork_block.id()),
            round=8,
            height=fork_block.height + 1,
            proposer=config.leader_of(8),
        )
        replica.store.add_block(extension)
        replica.current_round = 8
        proposal = ProposalMsg(
            sender=config.leader_of(8), round=8, block=extension
        )
        votes_before = replica.metrics.snapshot()["votes_sent"]
        replica._maybe_vote(proposal)
        # Streamlet's longest-chain rule refuses: no vote.
        assert replica.metrics.snapshot()["votes_sent"] == votes_before

    def test_competitive_length_fork_is_votable(self):
        """Only after regrowing to the tip height do honest votes flow."""
        replica, registry, config, tip = self._replica_with_main_chain(5)
        # The adversary sustains corruption: certify fork blocks from
        # height 3 all the way to height 5 (matching the main tip).
        cursor = ancestor_at_height(replica.store, tip.id(), 2)
        for index, round_number in enumerate((7, 8, 9)):
            fork_block = Block(
                parent_id=cursor.id(),
                qc=replica.store.qc_for(cursor.id()),
                round=round_number,
                height=cursor.height + 1,
                proposer=config.leader_of(round_number),
            )
            replica.store.add_block(fork_block)
            replica._process_qc(
                adversarial_qc(registry, fork_block, config.n), now=0.0
            )
            cursor = fork_block
        assert cursor.height == 5  # competitive with the main chain
        extension = Block(
            parent_id=cursor.id(),
            qc=replica.store.qc_for(cursor.id()),
            round=10,
            height=cursor.height + 1,
            proposer=config.leader_of(10),
        )
        replica.store.add_block(extension)
        replica.current_round = 10
        proposal = ProposalMsg(
            sender=config.leader_of(10), round=10, block=extension
        )
        votes_before = replica.metrics.snapshot()["votes_sent"]
        replica._maybe_vote(proposal)
        assert replica.metrics.snapshot()["votes_sent"] == votes_before + 1

    def test_adversary_work_scales_with_depth(self):
        """Quantify D.4: blocks the adversary must certify per depth."""
        for depth in (1, 2, 3):
            replica, registry, config, tip = self._replica_with_main_chain(5)
            fork_from_height = 5 - depth
            cursor = ancestor_at_height(
                replica.store, tip.id(), fork_from_height
            )
            blocks_needed = 0
            round_number = 20
            while cursor.height < 5:
                fork_block = Block(
                    parent_id=cursor.id(),
                    qc=replica.store.qc_for(cursor.id()),
                    round=round_number,
                    height=cursor.height + 1,
                    proposer=config.leader_of(round_number),
                )
                replica.store.add_block(fork_block)
                replica._process_qc(
                    adversarial_qc(registry, fork_block, config.n), now=0.0
                )
                cursor = fork_block
                blocks_needed += 1
                round_number += 1
            # Reverting a commit h deep requires h adversarial certs.
            assert blocks_needed == depth


class TestLiveComparison:
    def test_diembft_vs_streamlet_fork_exposure(self):
        """In live runs both stay safe; the asymmetry is rule-level."""
        diembft = build_cluster(small_experiment(duration=4.0)).run()
        streamlet = build_cluster(
            small_experiment(protocol="sft-streamlet", duration=4.0)
        ).run()
        from repro.analysis.invariants import check_prefix_consistency

        assert not check_prefix_consistency(diembft.replicas)
        assert not check_prefix_consistency(streamlet.replicas)
