"""Every signature is bound to the identity its message claims.

``KeyRegistry.verify`` checks a MAC under ``signature.signer``'s key,
so a valid signature proves only that *someone* signed.  Each entry
point must also compare that signer with the claimed ``sender`` /
``voter``; otherwise one Byzantine key speaks for every replica.  The
cases below deliver messages with ``src`` equal to the claimed sender
(what a plaintext TCP hello allows) but signed by another replica's
key, on an isolated replica at ``n = 4`` (quorum 3) with signature
checking on.
"""

from dataclasses import replace

from repro.protocols.base import ReplicaConfig
from repro.protocols.diembft import DiemBFTReplica
from repro.protocols.sft_diembft import SFTDiemBFTReplica
from repro.protocols.streamlet import StreamletConfig, StreamletReplica
from repro.types.block import Block
from repro.types.messages import (
    ProposalMsg,
    SyncRequestMsg,
    SyncResponseMsg,
    TimeoutMsg,
    VoteMsg,
)
from repro.types.quorum_cert import QuorumCertificate
from repro.types.vote import Vote
from tests.conftest import make_isolated_replica

FORGER = 3  # the one Byzantine key


def diembft_replica(replica_class=DiemBFTReplica, replica_id=0):
    config = ReplicaConfig(n=4, f=1, round_timeout=1000.0)
    assert config.verify_signatures
    return make_isolated_replica(replica_class, config, replica_id=replica_id)


def invalid_messages(replica):
    return replica.metrics.get("invalid_messages").value


def signed(registry, message, key):
    signature = registry.signing_key(key).sign(message.signing_payload())
    return replace(message, signature=signature)


def vote_for(registry, block, voter, key):
    vote = Vote(
        block_id=block.id(), block_round=block.round, height=block.height,
        voter=voter,
    )
    return signed(registry, vote, key)


def proposal(replica, parent, parent_qc, round_number):
    leader = replica.config.leader_of(round_number)
    block = Block(
        parent_id=parent.id(), qc=parent_qc, round=round_number,
        height=parent.height + 1, proposer=leader,
    )
    return ProposalMsg(sender=leader, round=round_number, block=block)


class TestProposal:
    def test_proposal_signed_by_another_key_is_rejected(self):
        replica, registry, _, sent = diembft_replica()
        replica.start()
        genesis_qc = replica.store.qc_for(replica.genesis.id())
        msg = proposal(replica, replica.genesis, genesis_qc, 1)
        assert msg.sender != FORGER
        replica.deliver(msg.sender, signed(registry, msg, FORGER))
        assert invalid_messages(replica) == 1
        assert msg.block.id() not in replica.store
        assert not [m for _, m in sent if isinstance(m, VoteMsg)]
        # The leader's own signature on the same proposal is accepted.
        replica.deliver(msg.sender, signed(registry, msg, msg.sender))
        assert invalid_messages(replica) == 1
        assert msg.block.id() in replica.store

    def test_one_key_cannot_forge_a_chain_to_commit(self):
        """Rounds 1-5 claim leaders 1, 2, 3, 0, 1, each block carrying
        a QC whose "voters" {0, 1, 2} were all signed by key 3.  Before
        the signer was bound this committed heights 1 and 2 with no
        message counted invalid."""
        replica, registry, simulator, _ = diembft_replica(SFTDiemBFTReplica)
        replica.start()
        parent = replica.genesis
        parent_qc = replica.store.qc_for(parent.id())
        for round_number in range(1, 6):
            msg = proposal(replica, parent, parent_qc, round_number)
            replica.deliver(msg.sender, signed(registry, msg, FORGER))
            simulator.run_until(simulator.now + 0.01)
            parent = msg.block
            parent_qc = QuorumCertificate(
                block_id=parent.id(), round=parent.round,
                height=parent.height,
                votes=tuple(
                    vote_for(registry, parent, voter, FORGER)
                    for voter in (0, 1, 2)
                ),
            )
        assert replica.commit_tracker.commit_order == []
        assert invalid_messages(replica) == 5


class TestVote:
    def test_streamlet_collector_rejects_vote_signed_by_another_key(self):
        config = StreamletConfig(n=4, f=1, round_duration=1000.0)
        replica, registry, _, _ = make_isolated_replica(
            StreamletReplica, config, replica_id=2
        )
        block = Block(
            parent_id=replica.genesis.id(),
            qc=replica.store.qc_for(replica.genesis.id()),
            round=1, height=1, proposer=config.leader_of(1),
        )
        replica.store.add_block(block)
        forged = vote_for(registry, block, voter=0, key=FORGER)
        for vote in (vote_for(registry, block, 1, 1), forged,
                     vote_for(registry, block, FORGER, FORGER)):
            replica.deliver(vote.voter, VoteMsg(sender=vote.voter, vote=vote))
        assert invalid_messages(replica) == 1
        assert not replica.store.is_certified(block.id())


class TestTimeout:
    def test_timeouts_signed_by_another_key_are_rejected(self):
        replica, registry, _, _ = diembft_replica()
        replica.start()
        round_number = replica.current_round
        genesis_qc = replica.store.qc_for(replica.genesis.id())
        # f + 1 timeouts would make the replica join the timeout.
        for claimed in (1, 2):
            msg = TimeoutMsg(sender=claimed, round=round_number,
                             qc_high=genesis_qc)
            replica.deliver(claimed, signed(registry, msg, FORGER))
        assert invalid_messages(replica) == 2
        assert not replica.pacemaker.has_timed_out(round_number)


class TestSyncRequest:
    def test_sync_request_signed_by_another_key_is_not_served(self):
        replica, registry, _, sent = diembft_replica()
        msg = SyncRequestMsg(sender=1, target=None, nonce=7)
        replica.deliver(1, signed(registry, msg, FORGER))
        assert not [m for _, m in sent if isinstance(m, SyncResponseMsg)]
        replica.deliver(1, signed(registry, msg, 1))
        assert [m.nonce for _, m in sent if isinstance(m, SyncResponseMsg)] == [7]
