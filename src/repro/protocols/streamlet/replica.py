"""The Streamlet replica (Figure 10).

Streamlet trades performance for simplicity; what Figure 10 adds to the
shared prototype (:class:`~repro.protocols.base.BaseReplica`):

* **lock-step rounds** of duration ``2Δ`` (Δ = assumed maximum network
  delay after GST) — the pacemaker is a fixed-interval clock, no
  timeout messages;
* the leader proposes extending **the longest certified chain** it
  knows;
* replicas vote (by **multicast**, not to a collector) for the first
  round-``r`` proposal iff it extends one of the longest certified
  chains they have seen;
* every replica aggregates votes and forms QCs locally, the instant a
  quorum completes;
* an **echo mechanism** re-multicasts every previously unseen message,
  giving the O(n³) per-round message complexity the paper cites;
* **commit rule**: three adjacent certified blocks at consecutive
  rounds commit the *middle* block and its ancestors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.protocols.base import BaseReplica, ReplicaConfig, ReplicaContext
from repro.types.block import Block
from repro.types.messages import EchoMsg, ProposalMsg, QCMsg, VoteMsg
from repro.types.quorum_cert import QuorumCertificate


@dataclass(slots=True)
class StreamletConfig(ReplicaConfig):
    """Streamlet adds the lock-step round duration (``2Δ``)."""

    round_duration: float = 0.5


class StreamletReplica(BaseReplica):
    """One Streamlet replica: clock rounds, longest-chain voting rule."""

    commit_rule = "streamlet"
    #: The echo layer delivers proposals and votes under the relayer's
    #: ``src``; their signatures authenticate them.
    relays_consensus = True

    def __init__(self, config: StreamletConfig, context: ReplicaContext) -> None:
        super().__init__(config, context)
        self.current_round = 0
        self._voted_rounds: set[int] = set()
        self._seen_message_keys: set = set()
        # Pre-crash longest certified chain height (0 = fresh boot):
        # the voting floor enforced by _may_vote after a restart.
        self._wal_certified_floor = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        now = self.context.now
        if now <= 0.0:
            self._enter_round(1)
            return
        # Crash-recovery restart: the cluster-wide lock-step clock kept
        # ticking while this replica was down, so rejoin at the *next*
        # round boundary rather than restarting from round 1.  Until
        # then current_round stays 0, which refuses every vote.
        period = self.config.round_duration
        boundary = int(now / period) + 1
        self.context.set_timer(
            boundary * period - now, self._enter_round, boundary + 1
        )

    def restore_from_wal(self, state) -> None:
        """Reload the durable voting record after a restart.

        The restored ``_voted_rounds`` set is the amnesia-safety core:
        Streamlet's one-vote-per-round guard consults it directly, so
        the reborn replica refuses every round its pre-crash
        incarnation already voted in.
        """
        super().restore_from_wal(state)
        self._voted_rounds |= state.voted_rounds()
        # The lock analog: Streamlet's longest-chain voting rule is
        # only safe across a restart if the reborn replica remembers
        # how long the longest certified chain already was.  Its fresh
        # store knows only genesis; without this floor it would help
        # certify a second chain from scratch — no round is ever voted
        # twice, yet conflicting heights commit (the property fuzzer
        # found exactly that with three simultaneous restarts).
        self._wal_certified_floor = state.certified_height

    # ------------------------------------------------------------------
    # round driver: lock-step clock
    # ------------------------------------------------------------------

    def _enter_round(self, round_number: int) -> None:
        if self.crashed:
            return
        self.current_round = round_number
        if self.tracer is not None:
            self.tracer.emit(
                self.context.now, "round", round=round_number, detail="clock"
            )
        if self.sync is not None:
            # Lock-step rounds advance on the clock, so a replica whose
            # certified tip trails the round number is stale.
            self.sync.note_round_lag(
                round_number, self.store.highest_certified_block().round
            )
        if self.config.leader_of(round_number) == self.replica_id:
            self._propose(round_number, "clock")
        self.context.set_timer(
            self.config.round_duration, self._enter_round, round_number + 1
        )

    def _proposal_basis(self, round_number: int):
        """Extend the longest certified chain; no timeout certificates."""
        del round_number
        parent_qc = self.store.qc_for(self._choose_parent().id())
        if parent_qc is None:
            return None  # cannot justify the extension; skip the slot
        return parent_qc, None

    def _choose_parent(self) -> Block:
        """Tip of the longest certified chain (deterministic tiebreak)."""
        tips = self.store.longest_certified_tips()
        if not tips:
            return self.genesis
        return max(tips, key=lambda block: (block.round, block.id().hex()))

    # ------------------------------------------------------------------
    # echo layer
    # ------------------------------------------------------------------

    def on_message(self, src: int, message) -> None:
        if isinstance(message, EchoMsg):
            # Unwrap; authenticity comes from the inner signature.
            src, message = message.origin, message.inner
        key = self._message_key(message)
        if key is not None:
            if key in self._seen_message_keys:
                return
            self._seen_message_keys.add(key)
            if self._should_echo(message):
                self.context.multicast(
                    EchoMsg(sender=self.replica_id, inner=message, origin=src),
                    include_self=False,
                )
        super().on_message(src, message)

    def _message_key(self, message):
        if isinstance(message, ProposalMsg):
            return ("proposal", message.block.id())
        if isinstance(message, VoteMsg):
            return ("vote", message.vote.block_id, message.vote.voter)
        if isinstance(message, QCMsg):
            return ("qc", message.qc.block_id)
        return None

    def _should_echo(self, message) -> bool:
        """Echo policy: the linear-mode message flow must stay O(n).

        Votes travel point-to-point to the collector under
        ``linear_votes`` (echoing them would rebuild the all-to-all
        phase), and an aggregated-QC broadcast is never echoed — the
        collector already fanned it out to everyone.
        """
        if isinstance(message, QCMsg):
            return False
        if self.config.linear_votes and isinstance(message, VoteMsg):
            return False
        return True

    # ------------------------------------------------------------------
    # voting rule and dispatch (every replica collects)
    # ------------------------------------------------------------------

    def _may_vote(self, block: Block) -> bool:
        round_number = block.round
        if round_number != self.current_round:
            return False
        if round_number in self._voted_rounds:
            return False
        parent = self.store.maybe_get(block.parent_id)
        if parent is None:
            return False
        # Voting rule: the proposal must extend one of the longest
        # certified chains this replica has seen.
        if not self.store.is_certified(parent.id()):
            return False
        if parent.height != self.store.certified_chain_height():
            return False
        # Restart safety: the pre-crash incarnation had certified a
        # chain this tall.  Until catch-up restores the store to at
        # least that height, voting for a shorter extension could
        # certify a conflicting branch from scratch.
        return parent.height >= self._wal_certified_floor

    def _mark_voted(self, vote) -> None:
        self._voted_rounds.add(vote.block_round)

    def _send_vote(self, msg: VoteMsg) -> None:
        if self.config.linear_votes:
            # Linear collection: one point-to-point vote to the next
            # round's leader (the collector), which aggregates and
            # re-broadcasts the certificate — O(n) per vote phase
            # instead of the multicast-plus-echo all-to-all.
            self.context.send(
                self.config.leader_of(msg.vote.block_round + 1), msg
            )
        else:
            self.context.multicast(msg, include_self=True)

    def _collects_votes(self, round_number: int) -> bool:
        return not self.config.linear_votes or super()._collects_votes(
            round_number
        )

    def _on_quorum(self, key: tuple) -> None:
        # No leader waits on stragglers here: every replica forms the
        # QC the instant its quorum completes (qc_extra_wait is a
        # DiemBFT-family knob).
        self._form_qc(key)

    def _on_relayed_qc(self, qc: QuorumCertificate) -> None:
        # Every replica collects, so a relayed certificate supersedes
        # whatever this one was still aggregating for the block.
        self._formed_qcs.add(qc.block_id)
        self._drop_vote_buckets((qc.block_id,))

    # ------------------------------------------------------------------
    # certification: durable catch-up anchor and voting floor
    # ------------------------------------------------------------------

    def _on_new_certification(self, qc: QuorumCertificate, now: float) -> None:
        if self.wal is not None:
            # Streamlet has no qc_high; persist the highest certified
            # QC as the restart catch-up anchor, and the longest
            # certified chain height as the voting floor a reborn
            # instance must respect.
            self.wal.record_qc_high(qc)
            self.wal.record_certified_height(
                self.store.certified_chain_height()
            )
        super()._on_new_certification(qc, now)

    # ------------------------------------------------------------------
    # checkpoint truncation
    # ------------------------------------------------------------------

    def _on_truncated(self, pruned) -> None:
        super()._on_truncated(pruned)
        self._seen_message_keys = {
            key for key in self._seen_message_keys if key[1] not in pruned
        }
