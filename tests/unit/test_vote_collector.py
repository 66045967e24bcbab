"""The shared vote collector (``BaseReplica._on_vote`` → QC), every family.

One collector serves all five replica classes; these tests drive it on
an isolated replica at ``n = 4`` (quorum 3) with votes signed on behalf
of the absent peers.  Replica 2 is used throughout: it leads round 2,
so it is the designated collector for round-1 votes in the DiemBFT
family, and Streamlet replicas all collect.
"""

from dataclasses import replace

import pytest

from repro.protocols.base import ReplicaConfig
from repro.protocols.diembft import DiemBFTReplica
from repro.protocols.fbft import FBFTDiemBFTReplica
from repro.protocols.sft_diembft import SFTDiemBFTReplica
from repro.protocols.sft_streamlet import SFTStreamletReplica
from repro.protocols.streamlet import StreamletConfig, StreamletReplica
from repro.types.block import Block
from repro.types.messages import ExtraVotesMsg, ProposalMsg, QCMsg, VoteMsg
from repro.types.quorum_cert import QuorumCertificate
from repro.types.vote import Vote
from tests.conftest import make_isolated_replica

DIEMBFT_FAMILY = (DiemBFTReplica, SFTDiemBFTReplica, FBFTDiemBFTReplica)
STREAMLET_FAMILY = (StreamletReplica, SFTStreamletReplica)
ALL_CLASSES = DIEMBFT_FAMILY + STREAMLET_FAMILY

COLLECTOR = 2


def collector(replica_class, **knobs):
    """Replica 2 of 4 with ``formed``, the QCs its collector built."""
    if issubclass(replica_class, StreamletReplica):
        config = StreamletConfig(n=4, f=1, round_duration=1000.0, **knobs)
    else:
        config = ReplicaConfig(n=4, f=1, round_timeout=1000.0, **knobs)
    replica, registry, simulator, sent = make_isolated_replica(
        replica_class, config, replica_id=COLLECTOR
    )
    formed = []
    process_qc = replica._process_qc

    def recording_process_qc(qc, now):
        formed.append(qc)
        process_qc(qc, now)

    replica._process_qc = recording_process_qc
    return replica, registry, simulator, sent, formed


def child_of(replica, parent, round_number, known=True):
    block = Block(
        parent_id=parent.id(),
        qc=replica.store.qc_for(parent.id()),
        round=round_number,
        height=parent.height + 1,
        proposer=replica.config.leader_of(round_number),
    )
    if known:
        replica.store.add_block(block)
    return block


def signed_vote(registry, block, voter, **lies):
    vote = Vote(
        block_id=block.id(),
        block_round=lies.get("block_round", block.round),
        height=lies.get("height", block.height),
        voter=voter,
    )
    signature = registry.signing_key(voter).sign(vote.signing_payload())
    return replace(vote, signature=signature)


def cast(replica, vote):
    replica._on_vote(vote.voter, VoteMsg(sender=vote.voter, vote=vote))


def invalid_messages(replica):
    return replica.metrics.snapshot()["invalid_messages"]


@pytest.mark.parametrize("replica_class", ALL_CLASSES)
class TestQuorum:
    def test_quorum_forms_exactly_one_qc_ordered_by_voter(self, replica_class):
        replica, registry, _, _, formed = collector(replica_class)
        block = child_of(replica, replica.genesis, 1)
        for voter in (3, 0):
            cast(replica, signed_vote(registry, block, voter))
        assert formed == []
        cast(replica, signed_vote(registry, block, 1))
        cast(replica, signed_vote(registry, block, 2))  # beyond the quorum
        assert len(formed) == 1
        qc = formed[0]
        assert (qc.block_id, qc.round, qc.height) == (block.id(), 1, 1)
        assert [vote.voter for vote in qc.votes] == [0, 1, 3]
        assert qc.validate(registry, replica.config.quorum())
        assert replica.store.qc_for(block.id()) is qc
        # The bucket is released with the certificate: collector memory
        # does not grow with the length of the run.
        assert not replica._collected_votes

    def test_repeated_voter_counts_once(self, replica_class):
        replica, registry, _, _, formed = collector(replica_class)
        block = child_of(replica, replica.genesis, 1)
        for voter in (0, 0, 1, 0):
            cast(replica, signed_vote(registry, block, voter))
        assert formed == []
        cast(replica, signed_vote(registry, block, 3))
        assert [vote.voter for vote in formed[0].votes] == [0, 1, 3]

    def test_post_qc_vote_reaches_late_vote_hook(self, replica_class):
        replica, registry, _, sent, _ = collector(replica_class)
        late = []
        on_late_vote = replica._on_late_vote

        def recording_on_late_vote(vote):
            late.append(vote)
            on_late_vote(vote)

        replica._on_late_vote = recording_on_late_vote
        block = child_of(replica, replica.genesis, 1)
        for voter in (0, 1, 3):
            cast(replica, signed_vote(registry, block, voter))
        assert late == []
        straggler = signed_vote(registry, block, 2)
        cast(replica, straggler)
        assert late == [straggler]
        extra = [msg for _, msg in sent if isinstance(msg, ExtraVotesMsg)]
        if replica_class is FBFTDiemBFTReplica:
            # Appendix B: each late vote costs the collector one multicast.
            assert [msg.votes for msg in extra] == [(straggler,)]
        else:
            assert extra == []

    def test_truncation_empties_every_per_block_structure(self, replica_class):
        # Rounds 1, 5, 9, 13: replica 2 is the DiemBFT collector of each.
        knobs = {"qc_extra_wait": 0.05} if replica_class in DIEMBFT_FAMILY else {}
        replica, registry, simulator, _, formed = collector(replica_class, **knobs)
        replica.start()

        def deliver_vote(vote):
            replica.deliver(vote.voter, VoteMsg(sender=vote.voter, vote=vote))

        # certified: formed, processed (and recorded by the SFT layer)
        certified = child_of(replica, replica.genesis, 1)
        for voter in (0, 1, 3):
            deliver_vote(signed_vote(registry, certified, voter))
        simulator.run_until(0.1)
        assert replica.store.is_certified(certified.id())
        # collecting: a bucket below quorum
        collecting = child_of(replica, certified, 5)
        deliver_vote(signed_vote(registry, collecting, 0))
        # parked: a relayed QC whose block never arrived
        parked = child_of(replica, certified, 9, known=False)
        parked_qc = QuorumCertificate(
            block_id=parked.id(), round=9, height=2,
            votes=tuple(signed_vote(registry, parked, v) for v in (0, 1, 3)),
        )
        replica.deliver(1, QCMsg(sender=1, qc=parked_qc))
        # orphaned: a proposal buffered on that unknown parent
        leader = replica.config.leader_of(10)
        orphan = Block(
            parent_id=parked.id(), qc=parked_qc, round=10, height=3,
            proposer=leader,
        )
        proposal = ProposalMsg(sender=leader, round=10, block=orphan)
        signature = registry.signing_key(leader).sign(proposal.signing_payload())
        replica.deliver(leader, replace(proposal, signature=signature))
        # waiting: a full quorum whose QC formation is still pending
        # (DiemBFT family, qc_extra_wait; Streamlet certifies at once)
        waiting = child_of(replica, certified, 13)
        for voter in (0, 1, 3):
            deliver_vote(signed_vote(registry, waiting, voter))

        pruned = frozenset(
            block.id()
            for block in (certified, collecting, parked, orphan, waiting)
        )

        def structures_mentioning_pruned():
            names = []
            for name, value in vars(replica).items():
                if not isinstance(value, (dict, set)):
                    continue
                for key in value:
                    parts = key if isinstance(key, tuple) else (key,)
                    if any(part in pruned for part in parts):
                        names.append(name)
                        break
            return sorted(names)

        expected = {
            "_collected_votes", "_formed_qcs", "_qcs_processed",
            "_pending_qcs", "_orphan_proposals",
        }
        if replica_class in DIEMBFT_FAMILY:
            expected.add("_pending_qc_forms")
        else:
            expected.add("_seen_message_keys")
        assert expected <= set(structures_mentioning_pruned())
        qcs_before = len(formed)
        replica._on_truncated(pruned)
        assert structures_mentioning_pruned() == []
        # The pending formation timer finds its bucket gone.
        simulator.run_until(1.0)
        assert len(formed) == qcs_before


class TestExtraWait:
    @pytest.mark.parametrize("replica_class", DIEMBFT_FAMILY)
    def test_diembft_family_waits_for_stragglers(self, replica_class):
        replica, registry, simulator, _, formed = collector(
            replica_class, qc_extra_wait=0.05
        )
        block = child_of(replica, replica.genesis, 1)
        for voter in (0, 1, 3):
            cast(replica, signed_vote(registry, block, voter))
        assert formed == []
        simulator.run_until(0.02)
        cast(replica, signed_vote(registry, block, 2))  # folds in
        assert formed == []
        simulator.run_until(0.1)
        assert len(formed) == 1
        assert [vote.voter for vote in formed[0].votes] == [0, 1, 2, 3]

    @pytest.mark.parametrize("replica_class", STREAMLET_FAMILY)
    def test_streamlet_forms_the_instant_quorum_completes(self, replica_class):
        replica, registry, _, _, formed = collector(
            replica_class, qc_extra_wait=0.05
        )
        block = child_of(replica, replica.genesis, 1)
        for voter in (0, 1, 3):
            cast(replica, signed_vote(registry, block, voter))
        assert len(formed) == 1
        assert len(formed[0].votes) == 3


@pytest.mark.parametrize("replica_class", ALL_CLASSES)
class TestPoisonedVote:
    """One Byzantine replica validly signs a vote naming the right
    block with the wrong round (or height).  Before the buckets were
    keyed by all three fields, the collector either built its QC *at*
    the bogus round — ingesting it unvalidated, so ``qc_high`` and the
    pacemaker jumped — or bundled the vote into a QC no peer accepts."""

    @pytest.mark.parametrize("lie", [{"block_round": 1001}, {"height": 1001}])
    def test_mismatch_with_known_block_is_invalid(self, replica_class, lie):
        replica, registry, _, _, formed = collector(replica_class)
        block = child_of(replica, replica.genesis, 1)
        cast(replica, signed_vote(registry, block, 0))
        cast(replica, signed_vote(registry, block, 1))
        cast(replica, signed_vote(registry, block, 3, **lie))
        assert formed == []
        assert invalid_messages(replica) == 1
        assert not replica.store.is_certified(block.id())
        if replica_class in DIEMBFT_FAMILY:
            assert replica.qc_high.round == 0
            assert replica.current_round == 0
        # The honest 2f+1 still certify.
        cast(replica, signed_vote(registry, block, 2))
        assert len(formed) == 1
        assert [vote.voter for vote in formed[0].votes] == [0, 1, 2]
        assert formed[0].validate(registry, replica.config.quorum())
        assert replica.store.is_certified(block.id())

    @pytest.mark.parametrize("poison_first", [True, False])
    def test_unknown_block_never_mixes_fields(self, replica_class, poison_first):
        """Votes can outrun their proposal; the collector cannot tell
        yet who is lying, but never builds a QC from mixed fields."""
        replica, registry, _, _, formed = collector(replica_class)
        block = child_of(replica, replica.genesis, 1, known=False)
        votes = [signed_vote(registry, block, voter) for voter in (0, 1)]
        poison = signed_vote(registry, block, 3, block_round=1001)
        votes.insert(0 if poison_first else 2, poison)
        for vote in votes:
            cast(replica, vote)
        assert formed == []
        cast(replica, signed_vote(registry, block, 2))
        assert len(formed) == 1
        qc = formed[0]
        assert (qc.round, qc.height) == (1, 1)
        assert [vote.voter for vote in qc.votes] == [0, 1, 2]
        assert qc.validate(registry, replica.config.quorum())
