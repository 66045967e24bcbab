"""Wire messages exchanged by replicas.

Every message carries its sender and is signed at the protocol layer
(the vote/timeout payloads embed signatures; proposals are signed as a
whole).  The Streamlet echo mechanism re-wraps messages in
:class:`EchoMsg` so duplicate suppression has a uniform handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.serialization import canonical_bytes
from repro.crypto.signatures import Signature
from repro.types.block import Block
from repro.types.quorum_cert import QuorumCertificate, TimeoutCertificate


@dataclass(frozen=True, slots=True)
class Message:
    """Base class for protocol messages (used for isinstance checks)."""

    sender: int


@dataclass(frozen=True, slots=True)
class ProposalMsg(Message):
    """⟨propose, B_k, r⟩_{L_r} — a leader's block proposal.

    ``tc`` justifies proposing in a round reached through timeouts.
    Light-client strong-commit updates (Section 5) ride inside the
    block itself (``block.commit_log``) so the block's QC certifies
    them.
    """

    round: int
    block: Block
    tc: TimeoutCertificate | None = None
    signature: Signature | None = None
    _cached_payload: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def signing_payload(self) -> bytes:
        """Signed bytes, computed once — all ``n`` receivers share them."""
        cached = self._cached_payload
        if cached is not None:
            return cached
        payload = canonical_bytes(
            "proposal", self.round, self.block.id().value, self.sender
        )
        object.__setattr__(self, "_cached_payload", payload)
        return payload


@dataclass(frozen=True, slots=True)
class VoteMsg(Message):
    """Envelope carrying one (strong-)vote to its collector."""

    vote: object  # Vote | StrongVote


@dataclass(frozen=True, slots=True)
class TimeoutMsg(Message):
    """⟨timeout, r, qc_high⟩_i — sent when the round-``r`` timer expires.

    With block-sync enabled the sender attaches the vote it cast in the
    timed-out round (``vote``), so peers can recover a QC whose
    collector — the next-round leader — crashed before aggregating.
    The vote is individually signed; the timeout signature still covers
    only ``(round, sender)``, keeping sync-off runs byte-identical.
    """

    round: int
    qc_high: QuorumCertificate
    signature: Signature | None = None
    vote: object | None = None
    _cached_payload: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def signing_payload(self) -> bytes:
        cached = self._cached_payload
        if cached is not None:
            return cached
        payload = canonical_bytes("timeout", self.round, self.sender)
        object.__setattr__(self, "_cached_payload", payload)
        return payload


@dataclass(frozen=True, slots=True)
class QCMsg(Message):
    """⟨qc, B_k, r⟩ — an aggregated certificate broadcast by a collector.

    Linear vote collection (the Linear-PBFT pattern): replicas send
    their votes point-to-point to the round's collector, which forms
    the QC and multicasts it in this envelope — one O(n) fan-in plus
    one O(n) fan-out per decision instead of an O(n²) all-to-all vote
    phase.  The message is self-certifying: the QC already carries
    ``2f + 1`` individually signed votes, so no outer signature is
    needed and receivers validate it with the usual
    :meth:`~repro.types.quorum_cert.QuorumCertificate.validate`.
    """

    qc: QuorumCertificate


@dataclass(frozen=True, slots=True)
class ExtraVotesMsg(Message):
    """FBFT-adapted baseline (Appendix B): late votes multicast by a leader.

    Each message carries votes for ``round`` that arrived after the QC
    was formed; the leader multicasts them one by one as they arrive,
    which is what drives the baseline to O(n^2) messages per decision.
    """

    round: int
    votes: tuple = ()


@dataclass(frozen=True, slots=True)
class EchoMsg(Message):
    """Streamlet echo wrapper: forward a previously unseen message."""

    inner: Message
    origin: int = -1


@dataclass(frozen=True, slots=True)
class ClientRequestMsg(Message):
    """A client transaction submitted to one replica's mempool."""

    transaction: object


@dataclass(frozen=True, slots=True)
class ClientReplyMsg(Message):
    """A replica's acknowledgement that a client transaction committed.

    Real-network clients collect these from the cluster and accept a
    transaction once ``f + 1`` distinct replicas report the same
    ``(txid, block_id)`` — at least one reporter is honest, so the
    commit is final (the PBFT client reply rule).  ``sender`` is the
    replying replica; the simulator tier reads commit logs directly and
    never sends these.
    """

    txid: object = None  # HashDigest of the committed transaction
    block_id: object = None  # BlockId of the committing block
    height: int = 0
    round: int = 0


@dataclass(frozen=True, slots=True)
class SyncRequestMsg(Message):
    """⟨sync-req, target, max, nonce⟩_i — ask a peer for missing blocks.

    ``target`` names the block whose certified ancestor chain the
    requester is missing (a proposal or QC referenced it but the local
    :class:`~repro.types.chain.BlockStore` has never seen it); ``None``
    asks for the peer's highest certified chain (round-lag catch-up).
    ``max_blocks`` bounds one response; deeper gaps are closed by
    iterated requests.  ``nonce`` pairs responses with requests across
    retries and peer rotation.
    """

    target: object | None = None  # BlockId (HashDigest) or None for tip
    max_blocks: int = 8
    nonce: int = 0
    signature: Signature | None = None
    _cached_payload: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def signing_payload(self) -> bytes:
        cached = self._cached_payload
        if cached is not None:
            return cached
        target_bytes = b"" if self.target is None else self.target.value
        payload = canonical_bytes(
            "sync-req", self.sender, target_bytes, self.max_blocks, self.nonce
        )
        object.__setattr__(self, "_cached_payload", payload)
        return payload


@dataclass(frozen=True, slots=True)
class SyncResponseMsg(Message):
    """⟨sync-resp, nonce, blocks, tip_qc⟩_i — a certified ancestor chain.

    ``blocks`` runs newest-first: ``blocks[0]`` is the requested target
    (or the responder's certified tip) and ``blocks[i + 1]`` is the
    parent of ``blocks[i]``, so each embedded ``block.qc`` certifies
    the next entry.  ``tip_qc`` certifies ``blocks[0]`` itself when the
    responder knows one.  Empty ``blocks`` signals a miss — the
    responder does not have the target — so the requester rotates peers
    immediately.  Block contents are authenticated by their hashes (a
    QC names its block by content hash); the message signature binds
    the chain to the responder for accounting.
    """

    nonce: int = 0
    blocks: tuple = ()
    tip_qc: QuorumCertificate | None = None
    signature: Signature | None = None
    _cached_payload: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def signing_payload(self) -> bytes:
        cached = self._cached_payload
        if cached is not None:
            return cached
        payload = canonical_bytes(
            "sync-resp",
            self.sender,
            self.nonce,
            tuple(block.id().value for block in self.blocks),
        )
        object.__setattr__(self, "_cached_payload", payload)
        return payload


@dataclass(frozen=True, slots=True)
class CheckpointMsg(Message):
    """⟨checkpoint, h, d⟩_i — a signed state digest at commit height ``h``.

    Every ``checkpoint_interval`` commits each replica digests its
    executed kvstore state together with the committed-chain block at
    the checkpoint height and multicasts this message (the PBFT
    checkpoint subprotocol).  ``2f + 1`` matching ``(height, digest)``
    pairs from distinct signers form a checkpoint certificate: proof
    the state is durable, so history below it may be truncated and a
    lagging replica may install it wholesale via snapshot transfer.
    """

    height: int = 0
    block_id: object = None  # BlockId (HashDigest) of the checkpoint block
    digest: object = None  # HashDigest over (height, block, state)
    signature: Signature | None = None
    _cached_payload: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def signing_payload(self) -> bytes:
        cached = self._cached_payload
        if cached is not None:
            return cached
        payload = canonical_bytes(
            "checkpoint", self.height, self.block_id.value, self.digest.value
        )
        object.__setattr__(self, "_cached_payload", payload)
        return payload


@dataclass(frozen=True, slots=True)
class SnapshotRequestMsg(Message):
    """⟨snapshot-req, h, nonce⟩_i — ask a peer for a stable checkpoint.

    ``min_height`` is the lowest checkpoint height worth shipping (the
    requester already has state through its own last checkpoint);
    ``nonce`` pairs responses with requests across retries and peer
    rotation, mirroring :class:`SyncRequestMsg`.
    """

    min_height: int = 0
    nonce: int = 0
    signature: Signature | None = None
    _cached_payload: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def signing_payload(self) -> bytes:
        cached = self._cached_payload
        if cached is not None:
            return cached
        payload = canonical_bytes(
            "snapshot-req", self.sender, self.min_height, self.nonce
        )
        object.__setattr__(self, "_cached_payload", payload)
        return payload


@dataclass(frozen=True, slots=True)
class SnapshotResponseMsg(Message):
    """⟨snapshot-resp, nonce, cert, block, state⟩_i — a full state transfer.

    Ships the responder's latest stable checkpoint: the checkpoint
    ``block``, the ``2f + 1`` signer certificate over its digest
    (``cert_height``/``cert_block_id``/``cert_digest``/``cert_signers``,
    each signer a ``(replica_id, signature)`` pair over the
    :class:`CheckpointMsg` payload), the executed kvstore ``state`` as
    sorted key/value pairs, and the sorted ``applied_txids`` of the
    executor's dedup set (duplicates can straddle the checkpoint
    boundary, so exactly-once semantics need it shipped).  Empty
    ``cert_signers`` signals a miss — the responder has no stable
    checkpoint at or above ``min_height`` — and the requester rotates.
    The requester recomputes the digest from the shipped state and
    validates the certificate before mutating anything.
    """

    nonce: int = 0
    cert_height: int = 0
    cert_block_id: object = None  # BlockId of the checkpoint block
    cert_digest: object = None  # HashDigest the signers agreed on
    cert_signers: tuple = ()  # ((replica_id, Signature), ...)
    block: Block | None = None
    state: tuple = ()  # sorted ((key, value), ...) kvstore items
    applied_txids: tuple = ()  # sorted executor dedup set
    applied_count: int = 0
    rejected_count: int = 0
    signature: Signature | None = None
    _cached_payload: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def signing_payload(self) -> bytes:
        cached = self._cached_payload
        if cached is not None:
            return cached
        payload = canonical_bytes(
            "snapshot-resp",
            self.sender,
            self.nonce,
            self.cert_height,
            b"" if self.cert_digest is None else self.cert_digest.value,
        )
        object.__setattr__(self, "_cached_payload", payload)
        return payload


__all__ = [
    "Message",
    "ProposalMsg",
    "VoteMsg",
    "QCMsg",
    "TimeoutMsg",
    "ExtraVotesMsg",
    "EchoMsg",
    "ClientRequestMsg",
    "ClientReplyMsg",
    "SyncRequestMsg",
    "SyncResponseMsg",
    "CheckpointMsg",
    "SnapshotRequestMsg",
    "SnapshotResponseMsg",
]
