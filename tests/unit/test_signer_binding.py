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

from dataclasses import dataclass, replace

import pytest

from repro.protocols.base import ReplicaConfig
from repro.protocols.diembft import DiemBFTReplica
from repro.protocols.fbft import FBFTDiemBFTReplica
from repro.protocols.sft_diembft import SFTDiemBFTReplica
from repro.protocols.sft_streamlet import SFTStreamletReplica
from repro.protocols.streamlet import StreamletConfig, StreamletReplica
from repro.sync.checkpoint import state_digest
from repro.types.block import Block
from repro.types.messages import (
    CheckpointMsg,
    ExtraVotesMsg,
    ProposalMsg,
    QCMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
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
    return replica.metrics.snapshot()["invalid_messages"]


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


class TestTimeoutQcHigh:
    def test_vote_less_qc_high_is_rejected(self):
        """A validly signed timeout carrying a certificate with no votes
        used to certify the block and move the round 1 → 2 with no
        message counted invalid."""
        replica, registry, _, _ = diembft_replica()
        replica.start()
        genesis_qc = replica.store.qc_for(replica.genesis.id())
        block = Block(
            parent_id=replica.genesis.id(), qc=genesis_qc, round=1,
            height=1, proposer=1,
        )
        replica.store.add_block(block)
        hollow = QuorumCertificate(block_id=block.id(), round=1, height=1)
        msg = TimeoutMsg(sender=1, round=replica.current_round, qc_high=hollow)
        replica.deliver(1, signed(registry, msg, 1))
        assert invalid_messages(replica) == 1
        assert not replica.store.is_certified(block.id())
        assert replica.current_round == 1


# ----------------------------------------------------------------------
# One gate, every entry point: family × entry point table
# ----------------------------------------------------------------------

CLAIMED = 1  # the replica every tabled message claims to come from
WRONG_SRC = 2  # a transport source other than the claimed one
INTERVAL = 4  # checkpoint interval of the tabled replicas
SNAPSHOT_HEIGHT = 2 * INTERVAL  # far enough ahead to fetch a snapshot

FAMILIES = {
    "diembft": DiemBFTReplica,
    "sft-diembft": SFTDiemBFTReplica,
    "fbft": FBFTDiemBFTReplica,
    "streamlet": StreamletReplica,
    "sft-streamlet": SFTStreamletReplica,
}
ALL = tuple(FAMILIES)
PACEMAKER = ("diembft", "sft-diembft", "fbft")
RELAYING = ("streamlet", "sft-streamlet")


def table_replica(family):
    """Replica 0 of ``n = 4``, checkpointing on, started."""
    if family in RELAYING:
        config = StreamletConfig(
            n=4, f=1, round_duration=1000.0, checkpoint_interval=INTERVAL
        )
    else:
        config = ReplicaConfig(
            n=4, f=1, round_timeout=1000.0, checkpoint_interval=INTERVAL
        )
    replica, registry, _, sent = make_isolated_replica(FAMILIES[family], config)
    replica.start()
    return replica, registry, sent


def genesis_child(replica, round_number, height, proposer=0):
    genesis = replica.genesis
    return Block(
        parent_id=genesis.id(), qc=replica.store.qc_for(genesis.id()),
        round=round_number, height=height, proposer=proposer,
    )


def collected_block(replica, registry, sent):
    """A stored, uncertified block whose votes replica 0 collects (it
    leads round 4, so it is every family's round-3 collector)."""
    del registry, sent
    block = genesis_child(replica, 3, 1, proposer=3)
    replica.store.add_block(block)
    return block


def bucketed(replica, voter):
    return any(voter in bucket for bucket in replica._collected_votes.values())


def nothing(replica, registry, sent):
    del replica, registry, sent


def leader_block(replica, registry, sent):
    """A round-1 block by its leader, ``CLAIMED``."""
    del registry, sent
    return genesis_child(replica, 1, 1, proposer=CLAIMED)


def deliver_proposal(replica, registry, block, key, src):
    msg = ProposalMsg(sender=CLAIMED, round=1, block=block)
    replica.deliver(src, signed(registry, msg, key))


def deliver_vote(replica, registry, block, key, src):
    vote = vote_for(registry, block, CLAIMED, key)
    replica.deliver(src, VoteMsg(sender=CLAIMED, vote=vote))


def deliver_qc(replica, registry, block, key, src):
    votes = tuple(
        vote_for(registry, block, voter, key if voter == CLAIMED else voter)
        for voter in (0, 1, 2)
    )
    qc = QuorumCertificate(
        block_id=block.id(), round=block.round, height=block.height,
        votes=votes,
    )
    replica.deliver(src, QCMsg(sender=CLAIMED, qc=qc))


def deliver_timeout(replica, registry, state, key, src):
    genesis_qc = replica.store.qc_for(replica.genesis.id())
    msg = TimeoutMsg(sender=CLAIMED, round=1, qc_high=genesis_qc)
    replica.deliver(src, signed(registry, msg, key))


def deliver_recovered_vote(replica, registry, block, key, src):
    """The vote rides on an authentic timeout from ``src``: the binding
    under test is the vote's voter to that timeout's sender."""
    genesis_qc = replica.store.qc_for(replica.genesis.id())
    vote = vote_for(registry, block, CLAIMED, key)
    timeout = TimeoutMsg(sender=src, round=1, qc_high=genesis_qc, vote=vote)
    replica.deliver(src, signed(registry, timeout, src))


def deliver_extra_votes(replica, registry, block, key, src):
    vote = vote_for(registry, block, CLAIMED, key)
    replica.deliver(src, ExtraVotesMsg(sender=CLAIMED, round=3, votes=(vote,)))


def deliver_sync_request(replica, registry, state, key, src):
    msg = SyncRequestMsg(sender=CLAIMED, target=None, nonce=7)
    replica.deliver(src, signed(registry, msg, key))


def fetching_block(replica, registry, sent):
    """Replica 0 asks its first peer (``CLAIMED``) for a missing block."""
    block = leader_block(replica, registry, sent)
    replica.sync.note_missing(block.id())
    (dst, request), = [
        (dst, msg) for dst, msg in sent if isinstance(msg, SyncRequestMsg)
    ]
    assert dst == CLAIMED
    return block, request.nonce


def deliver_sync_response(replica, registry, state, key, src):
    block, nonce = state
    msg = SyncResponseMsg(sender=CLAIMED, nonce=nonce, blocks=(block,))
    replica.deliver(src, signed(registry, msg, key))


def deliver_checkpoint(replica, registry, state, key, src):
    genesis_id = replica.genesis.id()
    msg = CheckpointMsg(
        sender=CLAIMED, height=INTERVAL, block_id=genesis_id,
        digest=state_digest(INTERVAL, genesis_id, (), ()),
    )
    replica.deliver(src, signed(registry, msg, key))


def deliver_snapshot_request(replica, registry, state, key, src):
    msg = SnapshotRequestMsg(sender=CLAIMED, min_height=INTERVAL, nonce=5)
    replica.deliver(src, signed(registry, msg, key))


def fetching_snapshot(replica, registry, sent):
    """2f + 1 checkpoint digests two intervals ahead: replica 0 asks
    its first peer (``CLAIMED``) for the snapshot."""
    block = genesis_child(replica, SNAPSHOT_HEIGHT, SNAPSHOT_HEIGHT)
    digest = state_digest(SNAPSHOT_HEIGHT, block.id(), (), ())
    for signer in (1, 2, 3):
        msg = CheckpointMsg(
            sender=signer, height=SNAPSHOT_HEIGHT, block_id=block.id(),
            digest=digest,
        )
        replica.deliver(signer, signed(registry, msg, signer))
    (dst, request), = [
        (dst, msg) for dst, msg in sent if isinstance(msg, SnapshotRequestMsg)
    ]
    assert dst == CLAIMED
    return block, digest, replica.checkpoint.stable.signers, request.nonce


def deliver_snapshot_response(replica, registry, state, key, src):
    block, digest, signers, nonce = state
    msg = SnapshotResponseMsg(
        sender=CLAIMED, nonce=nonce, cert_height=SNAPSHOT_HEIGHT,
        cert_block_id=block.id(), cert_digest=digest, cert_signers=signers,
        block=block,
    )
    replica.deliver(src, signed(registry, msg, key))


def sent_a(message_type):
    def accepted(replica, state, sent):
        return any(isinstance(msg, message_type) for _, msg in sent)
    return accepted


@dataclass(frozen=True)
class Entry:
    """One entry point: how to reach it and what acceptance looks like."""

    name: str
    families: tuple
    prepare: object  # (replica, registry, sent) -> state
    deliver: object  # (replica, registry, state, key, src) -> None
    accepted: object  # (replica, state, sent) -> bool
    counter: str | None  # counts rejections; None: dropped silently
    bound_in: tuple  # families where src must be the claimed sender
    counts_src: bool = True  # a src mismatch moves the counter too


ENTRIES = (
    Entry(
        "proposal", ALL, leader_block, deliver_proposal,
        lambda replica, block, sent: block.id() in replica.store,
        "invalid_messages", PACEMAKER,
    ),
    Entry(
        "vote", ALL, collected_block, deliver_vote,
        lambda replica, state, sent: bucketed(replica, CLAIMED),
        "invalid_messages", PACEMAKER,
    ),
    Entry(
        "qc-votes", ALL, collected_block, deliver_qc,
        lambda replica, block, sent: replica.store.is_certified(block.id()),
        "invalid_messages", (),
    ),
    Entry(
        "timeout", PACEMAKER, nothing, deliver_timeout,
        lambda replica, state, sent: CLAIMED
        in replica.pacemaker._timeout_votes.get(1, {}),
        "invalid_messages", PACEMAKER,
    ),
    Entry(
        "timeout-recovered-vote", PACEMAKER, collected_block,
        deliver_recovered_vote,
        lambda replica, state, sent: bucketed(replica, CLAIMED),
        "invalid_messages", PACEMAKER,
    ),
    Entry(
        "extra-votes", ("fbft",), collected_block, deliver_extra_votes,
        lambda replica, block, sent: replica.direct_votes.count(block.id())
        == 1,
        "invalid_messages", (),
    ),
    Entry(
        "sync-request", ALL, nothing, deliver_sync_request,
        sent_a(SyncResponseMsg), None, ALL,
    ),
    Entry(
        "sync-response", ALL, fetching_block, deliver_sync_response,
        lambda replica, state, sent: state[0].id() in replica.store,
        "sync.invalid_responses", ALL, counts_src=False,
    ),
    Entry(
        "checkpoint", ALL, nothing, deliver_checkpoint,
        lambda replica, state, sent: any(
            CLAIMED in signers
            for signers in replica.checkpoint._pending.values()
        ),
        None, ALL,
    ),
    Entry(
        "snapshot-request", ALL, nothing, deliver_snapshot_request,
        sent_a(SnapshotResponseMsg), None, ALL,
    ),
    Entry(
        "snapshot-response", ALL, fetching_snapshot,
        deliver_snapshot_response,
        lambda replica, state, sent: counter_value(
            replica, "checkpoint.snapshots_installed"
        ) == 1,
        "checkpoint.invalid_snapshots", ALL, counts_src=False,
    ),
)

CASES = [(entry, family) for entry in ENTRIES for family in entry.families]


def counter_value(replica, name):
    return replica.metrics.snapshot()[name]


@pytest.mark.parametrize(
    "entry,family", CASES,
    ids=[f"{entry.name}-{family}" for entry, family in CASES],
)
class TestOneGate:
    """Every entry point through the gate: a correct signature passes,
    another key's fails, and ``src`` is bound exactly where it is."""

    def run(self, entry, family, key, src):
        """Deliver once; returns ``(accepted, counter moved, invalid
        messages moved)``."""
        replica, registry, sent = table_replica(family)
        state = entry.prepare(replica, registry, sent)
        counter = entry.counter or "invalid_messages"
        before = counter_value(replica, counter)
        invalid_before = invalid_messages(replica)
        entry.deliver(replica, registry, state, key, src)
        return (
            entry.accepted(replica, state, sent),
            counter_value(replica, counter) - before,
            invalid_messages(replica) - invalid_before,
        )

    def test_correct_signature_is_accepted(self, entry, family):
        assert self.run(entry, family, CLAIMED, CLAIMED) == (True, 0, 0)

    def test_another_keys_signature_is_rejected(self, entry, family):
        accepted, moved, invalid = self.run(entry, family, FORGER, CLAIMED)
        assert not accepted
        assert moved == (1 if entry.counter else 0)
        assert invalid == (1 if entry.counter == "invalid_messages" else 0)

    def test_wrong_src_is_rejected_only_where_bound(self, entry, family):
        accepted, moved, invalid = self.run(entry, family, CLAIMED, WRONG_SRC)
        if family not in entry.bound_in:
            assert (accepted, moved, invalid) == (True, 0, 0)
            return
        counted = entry.counter is not None and entry.counts_src
        assert not accepted
        assert moved == (1 if counted else 0)
        assert invalid == (1 if entry.counter == "invalid_messages" else 0)
