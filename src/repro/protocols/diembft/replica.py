"""The DiemBFT replica (Figure 2).

What Figure 2 adds to the shared prototype
(:class:`~repro.protocols.base.BaseReplica`) — state: highest voted
round ``r_vote``, highest locked round ``r_lock``, current round (owned
by the pacemaker), and the highest known QC ``qc_high``.

Rules, verbatim from the paper:

* **Proposing** — the round leader multicasts a block extending the
  highest certified block (certified by ``qc_high``).
* **Voting** — on the first valid round-``r`` proposal, send a vote to
  the *next* leader iff ``r > r_vote`` and ``parent.round >= r_lock``.
* **Locking** — on a valid QC, ``r_lock = max(r_lock, parent-of-
  certified-block.round)`` (2-chain lock) and ``qc_high`` is raised.
* **Commit** — the 3-chain rule (three adjacent certified blocks with
  consecutive rounds), delegated to
  :class:`~repro.core.commit_rules.CommitTracker`.
* **Synchronization** — advance on a QC of the previous round or a
  timeout certificate; delegated to
  :class:`~repro.protocols.pacemaker.Pacemaker`.

The class is written to be subclassed: SFT-DiemBFT layers
:class:`~repro.protocols.base.SFTMixin` over it; the FBFT baseline
overrides late vote handling.
"""

from __future__ import annotations

from repro.protocols.base import BaseReplica, ReplicaConfig, ReplicaContext
from repro.protocols.pacemaker import Pacemaker
from repro.types.block import Block
from repro.types.messages import ProposalMsg, TimeoutMsg, VoteMsg
from repro.types.quorum_cert import QuorumCertificate


class DiemBFTReplica(BaseReplica):
    """One DiemBFT replica: pacemaker rounds, round-based voting rule."""

    commit_rule = "diembft"
    #: Pacemaker rounds wait for their proposal (up to the round
    #: timeout), so an idle leader may hold one.
    defers_proposals = True

    def __init__(self, config: ReplicaConfig, context: ReplicaContext) -> None:
        super().__init__(config, context)
        self.qc_high = self.store.qc_for(self.genesis.id())
        self.r_vote = 0
        self.r_lock = 0
        self.pacemaker = Pacemaker(
            config,
            context,
            on_new_round=self._on_new_round,
            on_local_timeout=self._on_local_timeout,
        )
        # Block-sync: last cast vote (recovered via timeout messages
        # when the aggregating next leader crashed).
        self._last_vote = None
        self._c_timeouts_sent = self.metrics.counter("timeouts_sent")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        self.pacemaker.start()

    def restore_from_wal(self, state) -> None:
        """Reload the durable voting record after a restart.

        ``r_vote`` is the amnesia-safety core: with it restored the
        ordinary ``round <= r_vote`` voting guard refuses every round
        the pre-crash incarnation already voted in.
        """
        super().restore_from_wal(state)
        self.r_vote = max(self.r_vote, state.r_vote)
        self.r_lock = max(self.r_lock, state.r_lock)
        if state.last_vote is not None:
            self._last_vote = state.last_vote
        self.pacemaker.restore_timed_out(state.timed_out_rounds)

    # ------------------------------------------------------------------
    # round driver: pacemaker transitions
    # ------------------------------------------------------------------

    @property
    def current_round(self) -> int:
        return self.pacemaker.current_round

    def _on_new_round(self, round_number: int, reason: str) -> None:
        if self.crashed:
            return
        if self.tracer is not None:
            self.tracer.emit(
                self.context.now, "round", round=round_number, detail=reason
            )
        if self.sync is not None and reason == "tc":
            # Timeout-driven jumps are the round-lag staleness signal:
            # QCs advance the round only when their block is known.
            self.sync.note_round_lag(
                round_number, self.store.highest_certified_block().round
            )
        if self.config.leader_of(round_number) == self.replica_id:
            self._propose(round_number, reason)

    def _proposal_basis(self, round_number: int):
        """Extend ``qc_high``; a round entered by timeout carries its TC."""
        parent_qc = self.qc_high
        tc = None
        if parent_qc.round != round_number - 1:
            tc = self.pacemaker.known_tc(round_number - 1)
        return parent_qc, tc

    def _on_local_timeout(self, round_number: int) -> None:
        if self.crashed:
            return
        vote = None
        if (
            self.sync is not None
            and self._last_vote is not None
            and self._last_vote.block_round == round_number
        ):
            # QC recovery: the vote this replica sent to the (possibly
            # crashed) round-(r+1) leader rides on the timeout, letting
            # every peer aggregate the round-r QC locally.
            vote = self._last_vote
        timeout = self._signed(
            TimeoutMsg(
                sender=self.replica_id,
                round=round_number,
                qc_high=self.qc_high,
                vote=vote,
            )
        )
        self._c_timeouts_sent.inc()
        if self.wal is not None:
            self.wal.record_timeout(round_number)
        if self.tracer is not None:
            self.tracer.emit(self.context.now, "timeout", round=round_number)
        self.context.multicast(timeout, include_self=True)

    # ------------------------------------------------------------------
    # proposals: admission (stale rounds, carried TCs)
    # ------------------------------------------------------------------

    def _accept_proposal(self, msg: ProposalMsg) -> None:
        if (
            msg.round < self.pacemaker.current_round
            and not self.store.is_awaited(msg.block.id())
        ):
            # Real DiemBFT rejects proposals for rounds it has moved
            # past; the exception keeps a block that a buffered orphan
            # is waiting for (possible under delivery reordering).
            return
        if msg.tc is not None:
            self.pacemaker.note_tc(msg.tc)
            self.pacemaker.advance_on_tc(msg.tc)
        super()._accept_proposal(msg)

    # ------------------------------------------------------------------
    # voting rule and dispatch (votes go to the next leader)
    # ------------------------------------------------------------------

    def _may_vote(self, block: Block) -> bool:
        round_number = block.round
        if self.pacemaker.has_timed_out(round_number):
            return False
        if round_number != self.pacemaker.current_round:
            return False
        if round_number <= self.r_vote:
            return False
        parent = self.store.maybe_get(block.parent_id)
        if parent is None or parent.round < self.r_lock:
            return False
        return self._validate_payload(block)

    def _validate_payload(self, block: Block) -> bool:
        """External validity hook (Section 2); accepts everything by default."""
        del block
        return True

    def _mark_voted(self, vote) -> None:
        self.r_vote = vote.block_round
        self._last_vote = vote

    def _send_vote(self, msg: VoteMsg) -> None:
        self.context.send(self.config.leader_of(msg.vote.block_round + 1), msg)

    # ------------------------------------------------------------------
    # QC processing (locking rule + synchronization rule)
    # ------------------------------------------------------------------

    def _process_qc(self, qc: QuorumCertificate, now: float) -> None:
        if qc.round > self.qc_high.round:
            self.qc_high = qc
            if self.wal is not None:
                self.wal.record_qc_high(qc)
        certified = self.store.maybe_get(qc.block_id)
        if certified is not None and certified.parent_id is not None:
            parent = self.store.maybe_get(certified.parent_id)
            if parent is not None and parent.round > self.r_lock:
                self.r_lock = parent.round
                if self.wal is not None:
                    self.wal.record_lock(parent.round)
        super()._process_qc(qc, now)
        self.pacemaker.advance_on_qc(qc.round)

    # ------------------------------------------------------------------
    # timeouts
    # ------------------------------------------------------------------

    def _on_other_message(self, src: int, message) -> None:
        if isinstance(message, TimeoutMsg):
            self._on_timeout_msg(src, message)

    def _on_timeout_msg(self, src: int, msg: TimeoutMsg) -> None:
        # qc_high is certified and may advance the round below, so it
        # is checked like any other QC before it is used.
        if not self._authentic(msg, msg.sender, src) or (
            self.config.verify_signatures
            and not msg.qc_high.validate(
                self.context.registry, self.config.quorum()
            )
        ):
            self._c_invalid_messages.inc()
            return
        if msg.round < self.pacemaker.current_round:
            return  # timeout for a round this replica already left
        self._process_qc(msg.qc_high, self.context.now)
        if self.sync is not None and msg.vote is not None:
            self._recover_timeout_vote(msg.sender, msg.vote)
        tc = self.pacemaker.record_timeout_vote(
            msg.round, msg.sender, msg.qc_high.round
        )
        if tc is not None:
            self.pacemaker.advance_on_tc(tc)

    def _recover_timeout_vote(self, sender: int, vote) -> None:
        """Aggregate a vote recovered from a peer's timeout message.

        When the leader of round ``r + 1`` crashes, the round-``r``
        votes it should have aggregated are lost and the 3-chain can
        never complete (the fuzzer's rotation-starvation find).  With
        sync enabled every replica re-aggregates the votes that ride on
        timeout messages, so the QC forms anyway.  Safety is unchanged:
        a recovered QC is the same 2f+1 signed votes any collector
        would have bundled.
        """
        if vote.voter != sender:
            self._c_invalid_messages.inc()
            return
        if self.store.is_certified(vote.block_id):
            return  # QC already known through the ordinary paths
        if self._valid_vote(vote):
            self._aggregate_vote(vote)
