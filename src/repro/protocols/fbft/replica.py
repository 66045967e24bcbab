"""FBFT's flexible quorums adapted to DiemBFT (Appendix B).

The baseline achieves Strengthened Fault Tolerance (SFT) with *direct* votes
only: the strong commit rule requires each 3-chain block to carry
``x + f + 1`` distinct signed votes.  Because liveness caps QC size at
``2f + 1``, any extra votes that arrive after the QC formed must be
multicast separately by the round's vote collector — one multicast per
late vote, up to ``f`` of them per round, hence the O(f·n) = O(n²)
amortized message complexity per decision the paper derives.

Benchmark E5 (``benchmarks/test_message_complexity.py``) measures this
against SFT-DiemBFT's linear footprint.

Block-sync (``sync_enabled``) is inherited from the DiemBFT base; a
timeout-recovered vote that arrives after this replica's local QC
formed flows through :meth:`_on_late_vote` like any other straggler
vote, i.e. it is multicast and counted toward flexible-quorum
assurance.
"""

from __future__ import annotations

from repro.core.commit_rules import CommitTracker
from repro.protocols.base import ReplicaConfig, ReplicaContext
from repro.protocols.diembft.replica import DiemBFTReplica
from repro.types.block import BlockId
from repro.types.chain import BlockStore
from repro.types.messages import ExtraVotesMsg
from repro.types.quorum_cert import QuorumCertificate


class DirectVoteTracker:
    """Counts *direct* votes per block (FBFT's notion of assurance).

    Exposes the same listener/count interface as
    :class:`~repro.core.endorsement.EndorsementTracker`, so the shared
    :class:`~repro.core.commit_rules.CommitTracker` evaluates the
    Appendix-B strong commit rule without modification.
    """

    def __init__(self, store: BlockStore) -> None:
        self._store = store
        self._voters: dict[BlockId, set[int]] = {}
        self._listeners: list = []

    def add_listener(self, listener) -> None:
        self._listeners.append(listener)

    def add_vote(self, vote, now: float = 0.0) -> bool:
        """Record one direct vote; returns True if it was new."""
        block = self._store.maybe_get(vote.block_id)
        if block is None:
            return False
        voters = self._voters.setdefault(vote.block_id, set())
        if vote.voter in voters:
            return False
        voters.add(vote.voter)
        count = len(voters)
        for listener in self._listeners:
            listener(block, count, now)
        return True

    def add_qc(self, qc: QuorumCertificate, now: float = 0.0) -> None:
        for vote in qc.votes:
            self.add_vote(vote, now)

    def count(self, block_id: BlockId) -> int:
        voters = self._voters.get(block_id)
        return len(voters) if voters is not None else 0


class FBFTDiemBFTReplica(DiemBFTReplica):
    """DiemBFT with Appendix-B flexible-quorum strong commits."""

    def __init__(self, config: ReplicaConfig, context: ReplicaContext) -> None:
        self.direct_votes: DirectVoteTracker | None = None
        super().__init__(config, context)
        self.extra_vote_multicasts = 0

    def _make_commit_tracker(self) -> CommitTracker:
        if self.config.observer:
            self.direct_votes = DirectVoteTracker(self.store)
        return CommitTracker(
            self.store,
            self.config.f,
            rule=self.commit_rule,
            endorsement=self.direct_votes,
        )

    def _on_new_certification(self, qc: QuorumCertificate, now: float) -> None:
        if self.direct_votes is not None:
            self.direct_votes.add_qc(qc, now)
        super()._on_new_certification(qc, now)

    def _on_late_vote(self, vote) -> None:
        """A vote beyond the QC: multicast it so everyone can count it.

        This is the Appendix-B dissemination step — each late vote
        costs one multicast (n messages).
        """
        if self.direct_votes is not None:
            self.direct_votes.add_vote(vote, self.context.now)
        self.extra_vote_multicasts += 1
        self.context.multicast(
            ExtraVotesMsg(
                sender=self.replica_id, round=vote.block_round, votes=(vote,)
            ),
            include_self=False,
        )

    def _on_other_message(self, src: int, message) -> None:
        if not isinstance(message, ExtraVotesMsg):
            super()._on_other_message(src, message)
            return
        del src  # extra votes are self-authenticating via vote signatures
        for vote in message.votes:
            if self._valid_vote(vote) and self.direct_votes is not None:
                self.direct_votes.add_vote(vote, self.context.now)
