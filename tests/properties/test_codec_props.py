"""Wire-codec round-trip properties for the real-network runtime.

The property: every message type that can appear on the TCP wire
survives encode → frame → stream-reassemble → decode unchanged, for
*arbitrary* field values — and because the dataclasses compare on
their semantic fields, signing payloads and therefore HMAC signatures
stay valid across the trip.  A codec bug that survives these tests
would have to conspire with the generator.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import HashDigest
from repro.crypto.registry import KeyRegistry
from repro.crypto.signatures import Signature
from repro.rt_net.codec import (
    WIRE_TYPES,
    FrameDecoder,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.types.block import Block
from repro.types.messages import (
    CheckpointMsg,
    ClientReplyMsg,
    ClientRequestMsg,
    EchoMsg,
    ExtraVotesMsg,
    Message,
    ProposalMsg,
    QCMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
    SyncRequestMsg,
    SyncResponseMsg,
    TimeoutMsg,
    VoteMsg,
)
from repro.types.quorum_cert import QuorumCertificate, TimeoutCertificate
from repro.types.transaction import Payload, Transaction, TxBatch
from repro.types.vote import StrongVote, Vote

# ----------------------------------------------------------------------
# strategies: realistic-but-arbitrary wire values
# ----------------------------------------------------------------------

senders = st.integers(0, 63)
rounds = st.integers(0, 2**31)
times = st.floats(0, 1e6, allow_nan=False, allow_infinity=False)
digests = st.binary(min_size=32, max_size=32).map(HashDigest)
signatures = st.builds(
    Signature, signer=senders, value=st.binary(min_size=32, max_size=32)
)
maybe_signature = st.none() | signatures

intervals = st.lists(
    st.tuples(rounds, rounds), max_size=3
).map(tuple)

plain_votes = st.builds(
    Vote,
    block_id=digests,
    block_round=rounds,
    height=rounds,
    voter=senders,
    signature=maybe_signature,
)
strong_votes = st.builds(
    StrongVote,
    block_id=digests,
    block_round=rounds,
    height=rounds,
    voter=senders,
    marker=rounds,
    intervals=intervals,
    signature=maybe_signature,
)
votes = plain_votes | strong_votes

qcs = st.builds(
    QuorumCertificate,
    block_id=digests,
    round=rounds,
    height=rounds,
    votes=st.lists(votes, max_size=4).map(tuple),
)
tcs = st.builds(
    TimeoutCertificate,
    round=rounds,
    timeout_voters=st.frozensets(senders, max_size=5),
    highest_qc_round=rounds,
)

transactions = st.builds(
    Transaction,
    client_id=senders,
    sequence=rounds,
    payload=st.binary(max_size=48),
    submitted_at=times,
)
batches = st.builds(
    TxBatch,
    count=st.integers(0, 10_000),
    size_bytes=st.integers(0, 10**7),
    created_at=times,
    tag=senders,
)
payloads = st.builds(
    Payload,
    transactions=st.lists(transactions, max_size=3).map(tuple),
    batch=st.none() | batches,
)

blocks = st.builds(
    Block,
    parent_id=st.none() | digests,
    qc=st.none() | qcs,
    round=rounds,
    height=rounds,
    proposer=senders,
    payload=payloads,
    created_at=times,
    commit_log=st.lists(
        st.tuples(st.binary(min_size=32, max_size=32), st.integers(1, 5)),
        max_size=2,
    ).map(tuple),
)

wire_messages = st.one_of(
    st.builds(ProposalMsg, sender=senders, round=rounds, block=blocks,
              tc=st.none() | tcs, signature=maybe_signature),
    st.builds(VoteMsg, sender=senders, vote=votes),
    st.builds(TimeoutMsg, sender=senders, round=rounds, qc_high=qcs,
              signature=maybe_signature, vote=st.none() | votes),
    st.builds(QCMsg, sender=senders, qc=qcs),
    st.builds(ExtraVotesMsg, sender=senders, round=rounds,
              votes=st.lists(votes, max_size=3).map(tuple)),
    st.builds(ClientRequestMsg, sender=senders, transaction=transactions),
    st.builds(ClientReplyMsg, sender=senders, txid=digests,
              block_id=digests, height=rounds, round=rounds),
    st.builds(SyncRequestMsg, sender=senders, target=st.none() | digests,
              max_blocks=st.integers(1, 64), nonce=rounds,
              signature=maybe_signature),
    st.builds(SyncResponseMsg, sender=senders, nonce=rounds,
              blocks=st.lists(blocks, max_size=2).map(tuple),
              tip_qc=st.none() | qcs, signature=maybe_signature),
    st.builds(CheckpointMsg, sender=senders, height=rounds,
              block_id=digests, digest=digests, signature=maybe_signature),
    st.builds(SnapshotRequestMsg, sender=senders, min_height=rounds,
              nonce=rounds, signature=maybe_signature),
    st.builds(SnapshotResponseMsg, sender=senders, nonce=rounds,
              cert_height=rounds, cert_block_id=st.none() | digests,
              cert_digest=st.none() | digests,
              cert_signers=st.lists(
                  st.tuples(senders, signatures), max_size=3
              ).map(tuple),
              block=st.none() | blocks,
              state=st.lists(
                  st.tuples(st.text(max_size=8), st.text(max_size=8)),
                  max_size=3,
              ).map(tuple),
              applied_txids=st.lists(digests, max_size=3).map(tuple),
              applied_count=rounds, rejected_count=rounds,
              signature=maybe_signature),
)
# EchoMsg wraps another message; keep nesting shallow.
echo_messages = st.builds(
    EchoMsg, sender=senders, inner=wire_messages, origin=senders
)
all_messages = wire_messages | echo_messages


class TestRoundTrip:
    @given(all_messages)
    @settings(max_examples=300)
    def test_encode_decode_identity(self, message):
        assert decode_message(encode_message(message)) == message

    @given(all_messages)
    @settings(max_examples=100)
    def test_encoding_is_deterministic(self, message):
        assert encode_message(message) == encode_message(message)

    @given(st.lists(all_messages, min_size=1, max_size=5),
           st.integers(1, 9))
    @settings(max_examples=100)
    def test_frame_reassembly_at_arbitrary_split(self, messages, chunk):
        """TCP gives no boundaries: any chunking must reassemble."""
        stream = b"".join(encode_frame(message) for message in messages)
        decoder = FrameDecoder()
        received = []
        for start in range(0, len(stream), chunk):
            received.extend(decoder.feed(stream[start:start + chunk]))
        assert received == messages


class TestSignatureValidity:
    """HMAC signatures bind to signing payloads, which must survive."""

    registry = KeyRegistry(4)

    @given(digests, rounds, rounds, senders.filter(lambda s: s < 4))
    @settings(max_examples=100)
    def test_strong_vote_signature_survives(self, block_id, round_number,
                                            marker, voter):
        vote = StrongVote(
            block_id=block_id, block_round=round_number,
            height=round_number, voter=voter, marker=marker,
        )
        signed = StrongVote(
            block_id=vote.block_id, block_round=vote.block_round,
            height=vote.height, voter=vote.voter, marker=vote.marker,
            signature=self.registry.signing_key(voter).sign(
                vote.signing_payload()
            ),
        )
        decoded = decode_message(encode_message(VoteMsg(
            sender=voter, vote=signed
        ))).vote
        assert decoded == signed
        assert self.registry.verify(
            decoded.signing_payload(), decoded.signature
        )

    def test_qc_validates_after_round_trip(self):
        block_id = HashDigest(b"\x07" * 32)
        quorum_votes = []
        for voter in range(3):
            vote = StrongVote(block_id=block_id, block_round=4, height=4,
                              voter=voter, marker=0)
            quorum_votes.append(StrongVote(
                block_id=block_id, block_round=4, height=4, voter=voter,
                marker=0,
                signature=self.registry.signing_key(voter).sign(
                    vote.signing_payload()
                ),
            ))
        qc = QuorumCertificate(
            block_id=block_id, round=4, height=4, votes=tuple(quorum_votes)
        )
        decoded = decode_message(encode_message(QCMsg(sender=0, qc=qc)))
        assert decoded.qc == qc
        assert decoded.qc.validate(self.registry, quorum=3)


def test_every_message_type_is_covered():
    """The strategy union must span every Message subclass on the wire.

    A new wire message added to ``WIRE_TYPES`` without a matching
    strategy here would silently lose round-trip coverage.
    """
    covered = {
        ProposalMsg, VoteMsg, TimeoutMsg, QCMsg, ExtraVotesMsg, EchoMsg, ClientRequestMsg, ClientReplyMsg,
        SyncRequestMsg, SyncResponseMsg, CheckpointMsg,
        SnapshotRequestMsg, SnapshotResponseMsg,
    }
    wire_message_types = {
        cls for cls in WIRE_TYPES if issubclass(cls, Message)
    }
    assert wire_message_types == covered
