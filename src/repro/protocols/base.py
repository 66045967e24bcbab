"""The chain-based BFT SMR prototype (Figure 1), once, for every protocol.

:class:`BaseReplica` is the paper's prototype made executable: the
whole ``proposal → vote → QC → certification → commit`` pipeline lives
here —

* proposal construction (:meth:`~BaseReplica._signed_proposal`),
  validation, and orphan buffering until the parent arrives;
* the vote-emission skeleton (WAL guard, :meth:`~BaseReplica._make_vote`,
  counters/trace, :meth:`~BaseReplica._after_vote`, fsync, dispatch);
* the vote collector (validate → bucket → QC at ``2f + 1`` → optional
  :class:`~repro.types.messages.QCMsg` fan-out) and QC-message ingestion;
* QC processing (certify a known block exactly once, feed the commit
  rule, or park the QC and ask block-sync for the missing block);
* WAL restore / rejoin, checkpoint truncation, and introspection.

**A base protocol supplies** only what its figure adds to Figure 1:

* a **round driver** — ``start()`` plus whatever advances rounds (the
  DiemBFT pacemaker, Streamlet's lock-step clock) and
  ``_proposal_basis(round)``: which certified block a leader extends;
* the **voting rule** — ``_may_vote(block)``, with ``_mark_voted(vote)``
  keeping whatever volatile state the rule reads;
* **vote dispatch** — ``_send_vote(msg)`` (to the next leader, or
  multicast) and, where it is not the designated next leader alone,
  ``_collects_votes(round)``;
* **``_process_qc`` pre/post steps** — state a certificate moves
  besides certification itself (``qc_high``, the 2-chain lock and the
  round for DiemBFT; nothing for Streamlet);
* the **commit-rule name** — the ``commit_rule`` class attribute handed
  to :class:`~repro.core.commit_rules.CommitTracker`.

Everything else a family overrides is a hook with a default here
(``_accept_proposal``, ``_on_quorum``, ``_on_relayed_qc``,
``_on_new_certification``, ``_on_late_vote``, ``_on_other_message``,
``restore_from_wal``, ``_on_truncated``), resolved by the MRO — the
shared path never asks which family it is serving.

**Authentication is one gate.** Every signed message a replica counts —
proposals, votes (alone, in QCs, on timeouts, in FBFT extra-vote
bundles), timeouts, and block-sync / checkpoint / snapshot traffic —
passes :meth:`BaseReplica._authentic`: the transport ``src`` (when
bound) is the claimed author, the author is a replica id, and the
signature is that author's.  Callers count failures on their own
counters.  ``src`` is bound for point-to-point traffic and left unbound
for votes carried inside another message; the one family attribute,
``relays_consensus`` (Streamlet's echo), unbinds it for proposals and
votes as well.

:class:`SFTMixin` is the paper's contribution as the same kind of
layer: strong-votes, endorsement tracking and the strengthened commit
rule over *any* such family (Figures 4 and 11), parametrised only by
the marker's conflict metric.

Replicas are deliberately transport-agnostic.  All interaction with the
outside world goes through :class:`ReplicaContext`, which is assembled
from two narrow structural interfaces:

* :class:`Transport` — message egress (``send`` / ``multicast``) plus
  endpoint detachment for crash faults;
* :class:`Clock` — the time source (``now``) and timer scheduling
  (``set_timer`` / ``cancel_timer``).

The deterministic simulator provides one implementation pair
(:class:`repro.net.sim.SimTransport` / :class:`repro.net.sim.SimClock`)
and the real-network runtime another
(:class:`repro.rt_net.transport.TcpTransport` /
:class:`repro.rt_net.transport.WallClock`), so the identical protocol
code runs under exhaustive simulation or real asyncio TCP sockets.
Protocol code must only ever call ``ctx.send`` / ``ctx.multicast`` /
``ctx.set_timer`` / ``ctx.cancel_timer`` / ``ctx.now`` (plus the key
material accessors) — never reach into a concrete transport.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

from repro.core.commit_rules import CommitTracker
from repro.core.endorsement import EndorsementTracker
from repro.core.strong_vote import VotingHistory
from repro.crypto.registry import KeyRegistry
from repro.obs import FlightRecorder, MetricsRegistry, Tracer
from repro.sync import CheckpointManager, SyncManager
from repro.types.block import Block, BlockId, make_genesis
from repro.types.chain import BlockStore
from repro.types.messages import (
    CheckpointMsg,
    ProposalMsg,
    QCMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
    SyncRequestMsg,
    SyncResponseMsg,
    VoteMsg,
)
from repro.types.quorum_cert import QuorumCertificate
from repro.types.transaction import Payload, TxBatch
from repro.types.vote import StrongVote, Vote


@runtime_checkable
class Transport(Protocol):
    """Message egress as seen by a replica.

    Implementations route by replica id.  ``send`` and ``multicast``
    are fire-and-forget: delivery latency, ordering, and loss semantics
    belong to the implementation (the simulated network models partial
    synchrony; the TCP transport gives per-connection FIFO delivery).
    """

    def send(self, src: int, dst: int, message) -> None: ...

    def multicast(self, src: int, message, include_self: bool = False) -> None: ...

    def unregister(self, replica_id: int) -> None: ...


@runtime_checkable
class Clock(Protocol):
    """Time source and timer scheduling as seen by a replica.

    ``now`` is seconds as a float; the epoch is implementation-defined
    (simulated time starts at 0, the wall clock at process start), so
    protocol code must only ever compare or subtract timestamps.
    ``set_timer`` returns an opaque handle accepted by
    ``cancel_timer``; cancelling an already-fired or already-cancelled
    timer is a no-op.
    """

    @property
    def now(self) -> float: ...

    def set_timer(self, delay: float, callback, *args): ...

    def cancel_timer(self, handle) -> None: ...


def round_robin_leader(round_number: int, n: int) -> int:
    """The paper's leader election: round-robin rotation."""
    return round_number % n


@dataclass(slots=True)
class ReplicaConfig:
    """Static per-replica configuration.

    ``f`` is the assumed Byzantine bound with ``n = 3f + 1`` replicas
    (quorums have ``2f + 1``).  Knobs:

    * ``round_timeout`` / ``timeout_multiplier`` — pacemaker timer
      policy (backoff capped at
      :data:`~repro.protocols.pacemaker.MAX_TIMEOUT`);
    * ``qc_extra_wait`` — Section 4.2: leaders delay QC formation this
      many seconds after reaching ``2f + 1`` votes to fold in straggler
      votes (0 disables);
    * ``generalized_intervals`` / ``interval_window`` — Section 3.4
      strong-vote mode;
    * ``observer`` — whether this replica pays for endorsement /
      strength bookkeeping (metrics); protocol behaviour is unaffected;
    * ``naive_accounting`` — count every indirect vote as an
      endorsement, ignoring markers (the flawed scheme Appendix C
      refutes; only the fuzzer's invariant oracle turns this on);
    * ``verify_signatures`` — validate every signature on receipt
      (on for tests; large benches may disable for speed);
    * ``block_batch_count`` / ``block_batch_bytes`` — synthetic payload
      shape (the paper's ~1000 txns / ~450 KB per block);
    * ``sync_enabled`` — the block-sync / catch-up subprotocol
      (:mod:`repro.sync`): fetch missing certified ancestor chains
      from peers and recover QCs from timeout-attached votes.  Off
      preserves the pre-sync behaviour byte-for-byte (determinism
      differentials, bench baselines);
    * ``batch_size`` — mempool drain cap when a real-transaction
      workload is attached: at most ``batch_size`` transactions per
      proposed block;
    * ``pipelined_proposals`` — changes nothing that commits in any
      measured run: on either tier a leader already skips what its
      parent's uncommitted chain carries (:func:`~repro.runtime.client.attach`).  On, it also
      holds back a transaction whose block fell off the chain for
      ``8 × round``.  Kept because the frozen benchmark names it;
    * ``linear_votes`` — Linear-PBFT-style vote collection: votes go
      point-to-point to the round collector, which multicasts the
      aggregated QC (:class:`~repro.types.messages.QCMsg`), making the
      vote phase O(n) instead of all-to-all.  Off preserves the
      pre-feature message flow byte-for-byte, same discipline as
      ``sync_enabled``;
    * ``checkpoint_interval`` — the PBFT checkpoint subprotocol
      (:mod:`repro.sync.checkpoint`): every this-many commits each
      replica signs a digest of its executed kvstore state; ``2f + 1``
      matching digests form a stable checkpoint that truncates history
      below it and lets far-behind replicas join via snapshot transfer
      instead of full replay.  0 (the default) disables it entirely,
      preserving pre-feature runs byte-for-byte;
    * ``trace_level`` — structured lifecycle tracing (:mod:`repro.obs`):
      ``"off"`` (default, byte-identical runs), ``"spans"`` (the
      ``proposed → qc_formed → endorsed → committed`` span chain plus
      sync/checkpoint request spans into the cluster-wide trace log),
      or ``"full"`` (spans plus one event per delivered message);
    * ``flight_recorder`` — the always-on per-replica ring of recent
      trace events, dumped to a JSON artifact when the invariant
      oracle reports a violation.  Memory-only: it never affects
      behaviour, messages, or metrics output.
    """

    n: int
    f: int
    round_timeout: float = 1.0
    timeout_multiplier: float = 1.5
    qc_extra_wait: float = 0.0
    generalized_intervals: bool = False
    interval_window: int | None = None
    observer: bool = True
    naive_accounting: bool = False
    verify_signatures: bool = True
    block_batch_count: int = 1000
    block_batch_bytes: int = 450_000
    sync_enabled: bool = True
    batch_size: int = 256
    pipelined_proposals: bool = False
    linear_votes: bool = False
    checkpoint_interval: int = 0
    trace_level: str = "off"
    flight_recorder: bool = True

    def quorum(self) -> int:
        return 2 * self.f + 1

    def leader_of(self, round_number: int) -> int:
        return round_robin_leader(round_number, self.n)


class ReplicaContext:
    """Everything a replica may do to the outside world.

    Binds one replica id to a :class:`Transport` and a :class:`Clock`
    (plus the key registry and optional trace/WAL attachments), so
    protocol code never touches global state or a concrete transport
    implementation; this is also the seam fault-injection tests use.
    The full replica-facing surface is ``send`` / ``multicast`` /
    ``set_timer`` / ``cancel_timer`` / ``now`` / ``detach`` and the
    key material (``registry`` / ``signing_key``).
    """

    def __init__(
        self,
        replica_id: int,
        transport: Transport,
        clock: Clock,
        registry: KeyRegistry,
        trace=None,
        durable=None,
    ) -> None:
        self.replica_id = replica_id
        self.transport = transport
        self.clock = clock
        self.registry = registry
        self.signing_key = registry.signing_key(replica_id)
        #: Cluster-wide span log (repro.obs.TraceLog) when tracing is
        #: enabled; None otherwise.
        self.trace = trace
        #: This replica's DurableState WAL record when the cluster has
        #: a crash-recovery schedule; None otherwise (the default), in
        #: which case no WAL work happens and runs replay byte-identically.
        self.durable = durable

    @property
    def now(self) -> float:
        return self.clock.now

    def send(self, dst: int, message) -> None:
        """Queue ``message`` for delivery to replica ``dst``."""
        self.transport.send(self.replica_id, dst, message)

    def multicast(self, message, include_self: bool = True) -> None:
        """Queue ``message`` for delivery to every replica."""
        self.transport.multicast(self.replica_id, message, include_self=include_self)

    def set_timer(self, delay: float, callback, *args):
        """Run ``callback(*args)`` after ``delay`` seconds; returns a handle."""
        return self.clock.set_timer(delay, callback, *args)

    def cancel_timer(self, handle) -> None:
        """Cancel a pending timer from :meth:`set_timer` (no-op when fired)."""
        if handle is not None:
            self.clock.cancel_timer(handle)

    def detach(self) -> None:
        """Remove this replica's transport endpoint (crash faults)."""
        self.transport.unregister(self.replica_id)


class BaseReplica:
    """Figure 1's prototype: the pipeline every protocol family shares."""

    #: Whether a reborn instance reloads its WAL.  The scripted
    #: ``amnesia`` behaviour sets this False to demonstrate that the
    #: durable voting record is load-bearing (the amnesia differential).
    wal_restore = True

    #: Whether an idle leader may hold its round until there is work
    #: (see :meth:`_propose`).  Off for clock-driven slots, which must
    #: never be skipped.
    defers_proposals = False

    #: Whether proposals and votes may reach this replica through a
    #: relay (Streamlet's echo), so their transport ``src`` is not
    #: their author.  Off, :meth:`_authentic` binds ``src`` to the
    #: claimed sender / voter as well.
    relays_consensus = False

    #: The family's commit rule, by its
    #: :class:`~repro.core.commit_rules.CommitTracker` name.
    commit_rule: str

    def __init__(self, config: ReplicaConfig, context: ReplicaContext) -> None:
        self.config = config
        self.context = context
        self.replica_id = context.replica_id
        self.crashed = False
        self.crash_at: float | None = None
        #: DurableState write-ahead record (crash-recovery runs only).
        self.wal = getattr(context, "durable", None)
        self.metrics = MetricsRegistry()
        span_log = (
            getattr(context, "trace", None)
            if config.trace_level != "off" else None
        )
        flight = FlightRecorder() if config.flight_recorder else None
        #: None iff both the span log and the flight ring are off —
        #: every emit site guards on this single attribute, so disabled
        #: runs stay byte-identical and effectively free.
        self.tracer = (
            Tracer(context.replica_id, span_log=span_log, flight=flight,
                   level=config.trace_level)
            if span_log is not None or flight is not None
            else None
        )
        genesis, genesis_qc = make_genesis()
        self.genesis = genesis
        self.store = BlockStore(genesis, genesis_qc)
        self.commit_tracker = self._make_commit_tracker()
        self.commit_tracker.tracer = self.tracer
        #: ``(now, parent_id) -> Payload`` for a block extending
        #: ``parent_id``, or ``None`` when nothing is worth proposing
        #: yet; harnesses rebind it to a mempool.
        self.payload_source = self._default_payload
        #: The led round :meth:`_propose` is holding for
        #: :meth:`propose_deferred`, if any.
        self.deferred_round: int | None = None
        # Vote aggregation (this replica acting as a collector); see
        # _aggregate_vote for why buckets are keyed by more than the id.
        self._collected_votes: dict[tuple, dict[int, object]] = {}
        self._formed_qcs: set[BlockId] = set()
        self._pending_qc_forms: set[tuple] = set()
        # Replica-level idempotence and orphan handling.
        self._qcs_processed: set[BlockId] = set()
        self._pending_qcs: dict[BlockId, QuorumCertificate] = {}
        self._orphan_proposals: dict[BlockId, ProposalMsg] = {}
        # WAL highest QC stashed by restore_from_wal; fed through
        # _process_qc by rejoin_after_restart() (after start(), which
        # would otherwise reset the round state it advances).
        self._wal_qc_high = None
        self._c_blocks_proposed = self.metrics.counter("blocks_proposed")
        self._c_proposals_deferred = self.metrics.counter("proposals_deferred")
        self._c_votes_sent = self.metrics.counter("votes_sent")
        self._c_invalid_messages = self.metrics.counter("invalid_messages")
        # Attached last: both managers read the store and commit
        # tracker.  None when sync_enabled is off / checkpoint_interval
        # is 0, preserving pre-feature runs byte-for-byte.
        self.sync = SyncManager(self) if config.sync_enabled else None
        self.checkpoint = (
            CheckpointManager(self) if config.checkpoint_interval > 0 else None
        )

    # ------------------------------------------------------------------
    # construction hooks (overridden by the SFT layer and adversaries)
    # ------------------------------------------------------------------

    def _make_commit_tracker(self) -> CommitTracker:
        return CommitTracker(self.store, self.config.f, rule=self.commit_rule)

    def _default_payload(self, now: float, parent_id=None) -> Payload:
        del parent_id
        return Payload(
            batch=TxBatch(
                count=self.config.block_batch_count,
                size_bytes=self.config.block_batch_bytes,
                created_at=now,
                tag=self.replica_id,
            )
        )

    def _make_vote(self, block: Block):
        """Build this protocol's vote for ``block`` (a plain vote)."""
        vote = Vote(
            block_id=block.id(),
            block_round=block.round,
            height=block.height,
            voter=self.replica_id,
        )
        return self._signed(vote)

    def _after_vote(self, block: Block) -> None:
        """Hook: called after this replica votes for ``block``."""

    def _on_new_certification(self, qc: QuorumCertificate, now: float) -> None:
        """Hook: a QC for a known block was recorded for the first time."""
        self.commit_tracker.on_new_qc(qc, now)

    def _on_late_vote(self, vote) -> None:
        """Hook: a vote arrived for a block whose QC already formed."""

    def _proposal_commit_log(self) -> tuple:
        """Hook: light-client commit log to embed in proposals (§5)."""
        return ()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Round driver entry: called once when the run begins."""
        raise NotImplementedError

    def crash(self) -> None:
        """Benign (crash) fault: the replica stops entirely."""
        self.crashed = True
        self.context.detach()

    def restore_from_wal(self, state) -> None:
        """Reload safety-critical voting state after a restart.

        Called by :meth:`~repro.runtime.cluster.Cluster.restart_replica`
        on the *replacement* instance, before :meth:`start`.  Families
        extend this with their voting record; the highest known QC is
        only stashed — ingesting it moves round state ``start()`` would
        reset, so :meth:`rejoin_after_restart` feeds it through
        ``_process_qc`` once the replica is live.
        """
        state.note_restore()
        self._wal_qc_high = state.qc_high

    def rejoin_after_restart(self) -> None:
        """Kick off catch-up from the WAL's highest known QC: its block
        is unknown to the fresh store, so ``_process_qc`` routes it to
        the block-sync / snapshot rejoin path."""
        qc, self._wal_qc_high = self._wal_qc_high, None
        if qc is not None:
            self._process_qc(qc, self.context.now)

    def deliver(self, src: int, message) -> None:
        """Network entry point; dispatches to ``on_message``.

        Sync traffic is intercepted here, before protocol dispatch:
        the catch-up subprotocol is family-agnostic plumbing (it only
        reads/extends the block store), so neither DiemBFT's collector
        logic nor Streamlet's echo layer ever sees it.
        """
        if self.crashed:
            return
        tracer = self.tracer
        if tracer is not None and tracer.full:
            tracer.emit(
                self.context.now, "deliver",
                detail=f"{type(message).__name__} from {src}",
            )
        if isinstance(message, SyncRequestMsg):
            self._on_sync_request(src, message)
            return
        if isinstance(message, SyncResponseMsg):
            self._on_sync_response(src, message)
            self._poll_checkpoint()
            return
        if self.checkpoint is not None:
            if isinstance(message, CheckpointMsg):
                self.checkpoint.on_checkpoint(src, message)
                self._poll_checkpoint()
                return
            if isinstance(message, SnapshotRequestMsg):
                self.checkpoint.serve_snapshot(src, message)
                return
            if isinstance(message, SnapshotResponseMsg):
                self.checkpoint.on_snapshot_response(src, message)
                self._poll_checkpoint()
                return
        self.on_message(src, message)
        self._poll_checkpoint()

    def on_message(self, src: int, message) -> None:
        if isinstance(message, ProposalMsg):
            self._on_proposal(src, message)
        elif isinstance(message, VoteMsg):
            self._on_vote(src, message)
        elif isinstance(message, QCMsg):
            self._on_qc_msg(src, message)
        else:
            self._on_other_message(src, message)

    def _on_other_message(self, src: int, message) -> None:
        """Hook for family-specific message types."""
        del src, message

    def _authentic(self, msg, claimed: int, src: int | None = None) -> bool:
        """The one authentication gate: ``msg`` speaks for ``claimed``.

        ``src`` (when given, the transport source) must be ``claimed``;
        ``claimed`` must be a replica id; and with signature checking on,
        ``msg`` must carry a valid signature made by ``claimed``'s key.
        Callers count failures on their own counters.
        """
        if src is not None and src != claimed:
            return False
        if not 0 <= claimed < self.config.n:
            return False
        if not self.config.verify_signatures:
            return True
        signature = msg.signature
        return (
            signature is not None
            and signature.signer == claimed
            and self.context.registry.verify(msg.signing_payload(), signature)
        )

    def _signed(self, msg):
        """``msg`` (a frozen dataclass) rebuilt with this replica's
        signature over its signing payload attached."""
        signature = self.context.signing_key.sign(msg.signing_payload())
        return replace(msg, signature=signature)

    # ------------------------------------------------------------------
    # proposing
    # ------------------------------------------------------------------

    def _proposal_basis(self, round_number: int):
        """Round-driver hole: what a round-``round_number`` leader
        extends, as ``(parent_qc, tc)`` — or ``None`` to skip the slot."""
        raise NotImplementedError

    def _propose(
        self, round_number: int, reason: str, force: bool = False
    ) -> None:
        """Proposing rule; ``reason`` (``"start"``/``"qc"``/``"tc"``/
        ``"clock"``/``"deferred"``) is why the round began — the honest
        rule ignores it.

        When ``payload_source`` returns ``None`` a family that
        :attr:`defers_proposals` holds the round for
        :meth:`propose_deferred`; any other family, or ``force``,
        proposes the synthetic batch instead.
        """
        del reason
        basis = self._proposal_basis(round_number)
        if basis is None:
            return
        parent_qc, tc = basis
        now = self.context.now
        payload = self.payload_source(now, parent_qc.block_id)
        if payload is None:
            if self.defers_proposals and not force:
                if self.deferred_round != round_number:
                    self.deferred_round = round_number
                    self._c_proposals_deferred.inc()
                return
            payload = self._default_payload(now, parent_qc.block_id)
        self.deferred_round = None
        proposal = self._signed_proposal(
            parent_qc, round_number,
            commit_log=self._proposal_commit_log(), tc=tc, payload=payload,
        )
        self._c_blocks_proposed.inc()
        tracer = self.tracer
        if tracer is not None:
            block = proposal.block
            txs = block.payload.transactions
            tracer.emit(
                block.created_at, "propose", round=round_number,
                height=block.height, block=block.id().short(),
                value=sum(block.created_at - tx.submitted_at for tx in txs),
                count=len(txs),
            )
        self.context.multicast(proposal, include_self=True)

    def propose_deferred(self, force: bool = False) -> None:
        """Propose the round :meth:`_propose` deferred, if this replica
        is still in it (a stale deferral is dropped).  ``force`` proposes
        even when the payload source still has nothing: the heartbeat
        that keeps an idle cluster's rounds inside their timeout."""
        round_number = self.deferred_round
        if round_number is None:
            return
        if self.crashed or round_number != self.current_round:
            self.deferred_round = None
            return
        self._propose(round_number, "deferred", force=force)

    def _signed_proposal(
        self, parent_qc: QuorumCertificate, round_number: int,
        commit_log: tuple = (), tc=None, payload: Payload | None = None,
    ) -> ProposalMsg:
        """Build and sign a block extending ``parent_qc``'s block.

        Also the seam adversarial leaders construct their blocks
        through, which is why ``commit_log`` is an argument: drawing
        the honest §5 log advances a cursor, so it must happen once per
        slot in :meth:`_propose`, not once per built block.  Without a
        ``payload`` the block asks ``payload_source`` for one.
        """
        now = self.context.now
        if payload is None:
            payload = self.payload_source(now, parent_qc.block_id)
        block = Block(
            parent_id=parent_qc.block_id,
            qc=parent_qc,
            round=round_number,
            height=parent_qc.height + 1,
            proposer=self.replica_id,
            payload=payload,
            created_at=now,
            commit_log=commit_log,
        )
        return self._signed(
            ProposalMsg(
                sender=self.replica_id, round=round_number, block=block, tc=tc
            )
        )

    # ------------------------------------------------------------------
    # proposals in: validation, orphan buffering, insertion
    # ------------------------------------------------------------------

    def _on_proposal(self, src: int, msg: ProposalMsg) -> None:
        if not self._validate_proposal(src, msg):
            self._c_invalid_messages.inc()
            return
        self._accept_proposal(msg)

    def _validate_proposal(self, src: int, msg: ProposalMsg) -> bool:
        block = msg.block
        if block.is_genesis() or block.qc is None:
            return False
        if block.round != msg.round or block.proposer != msg.sender:
            return False
        if self.config.leader_of(msg.round) != msg.sender:
            return False
        if block.qc.block_id != block.parent_id:
            return False
        if self.relays_consensus:
            src = None
        if not self._authentic(msg, msg.sender, src):
            return False
        return not self.config.verify_signatures or block.qc.validate(
            self.context.registry, self.config.quorum()
        )

    def _accept_proposal(self, msg: ProposalMsg) -> None:
        """Store a validated proposal's block (hook: families prepend
        their own admission steps)."""
        block = msg.block
        # Remember the proposal; the generic inserted-block path votes
        # on it, whether insertion happens now or when a missing parent
        # arrives (orphan flush).
        self._orphan_proposals.setdefault(block.id(), msg)
        inserted = self.store.add_block(block)
        if inserted:
            self._handle_inserted_blocks(inserted)
        elif self.sync is not None and block.parent_id not in self.store:
            # The proposal was orphaned on an unknown parent — the
            # staleness signal the catch-up subprotocol acts on.
            self.sync.note_missing(block.parent_id)

    def _handle_inserted_blocks(self, inserted) -> None:
        """Process QC effects and voting for each newly stored block."""
        now = self.context.now
        for block in inserted:
            if block.qc is not None:
                self._process_qc(block.qc, now)
            pending_qc = self._pending_qcs.pop(block.id(), None)
            if pending_qc is not None:
                self._process_qc(pending_qc, now)
        # Voting happens after all certification state is updated.
        for block in inserted:
            msg = self._orphan_proposals.pop(block.id(), None)
            if msg is not None:
                self._maybe_vote(msg)

    # ------------------------------------------------------------------
    # voting
    # ------------------------------------------------------------------

    def _may_vote(self, block: Block) -> bool:
        """The family's voting rule (pure: no state changes)."""
        raise NotImplementedError

    def _mark_voted(self, vote) -> None:
        """Update the volatile state :meth:`_may_vote` reads."""
        raise NotImplementedError

    def _send_vote(self, msg: VoteMsg) -> None:
        """Vote dispatch: to a collector, or to everyone."""
        raise NotImplementedError

    def _maybe_vote(self, msg: ProposalMsg) -> None:
        block = msg.block
        round_number = block.round
        if not self._may_vote(block):
            return
        if self.wal is not None and self.wal.has_voted(round_number):
            # Amnesia safety, belt-and-braces: the WAL is authoritative
            # about past votes even if the volatile record lags it.
            return
        vote = self._make_vote(block)
        self._mark_voted(vote)
        self._c_votes_sent.inc()
        if self.tracer is not None:
            self.tracer.emit(
                self.context.now, "vote", round=round_number,
                height=block.height, block=block.id().short(),
            )
        self._after_vote(block)
        if self.wal is not None:
            # fsync the vote before it leaves the replica
            self.wal.record_vote(round_number, block.id(), vote)
        self._send_vote(VoteMsg(sender=self.replica_id, vote=vote))

    # ------------------------------------------------------------------
    # vote collection
    # ------------------------------------------------------------------

    def _collects_votes(self, round_number: int) -> bool:
        """Whether this replica aggregates round-``round_number`` votes:
        by default only the designated collector, the next leader."""
        return self.config.leader_of(round_number + 1) == self.replica_id

    def _on_vote(self, src: int, msg: VoteMsg) -> None:
        vote = msg.vote
        if not self._valid_vote(vote, None if self.relays_consensus else src):
            return
        if self._collects_votes(vote.block_round):
            self._aggregate_vote(vote)

    def _valid_vote(self, vote, src: int | None = None) -> bool:
        """Checks shared by every vote entry point; counts failures.

        Beyond :meth:`_authentic` for the voter (``src`` is bound only
        for a vote that arrived as itself, never for one carried inside
        another message): a vote's ``block_round`` and ``height`` are
        claims its signer makes about ``block_id``, and one Byzantine
        signer can make false ones — when the block is known they must
        match it.
        """
        valid = self._authentic(vote, vote.voter, src)
        if valid:
            block = self.store.maybe_get(vote.block_id)
            valid = block is None or (
                vote.block_round == block.round and vote.height == block.height
            )
        if not valid:
            self._c_invalid_messages.inc()
        return valid

    def _aggregate_vote(self, vote) -> None:
        """Bucket one validated vote; at quorum, hand over to QC formation.

        Buckets are keyed by everything a QC asserts about its block —
        ``(block_id, block_round, height)`` — so a certificate is only
        ever built from ``2f + 1`` votes that agree on all three.  When
        the block is not stored yet :meth:`_valid_vote` cannot catch a
        lying voter, but its vote lands in a bucket of its own and can
        neither poison nor pre-empt the honest one.
        """
        if vote.block_id in self._formed_qcs:
            self._on_late_vote(vote)
            return
        key = (vote.block_id, vote.block_round, vote.height)
        bucket = self._collected_votes.setdefault(key, {})
        bucket[vote.voter] = vote
        quorum = self.config.quorum()
        if len(bucket) < quorum:
            return
        if self.tracer is not None and len(bucket) == quorum:
            self.tracer.emit(
                self.context.now, "votes_collected", round=vote.block_round,
                height=vote.height, block=vote.block_id.short(),
                count=len(bucket),
            )
        self._on_quorum(key)

    def _on_quorum(self, key: tuple) -> None:
        """A bucket holds ``2f + 1`` votes: form the QC now, or after
        ``qc_extra_wait`` so straggler votes fold in (Section 4.2)."""
        if self.config.qc_extra_wait > 0:
            if key not in self._pending_qc_forms:
                self._pending_qc_forms.add(key)
                self.context.set_timer(
                    self.config.qc_extra_wait, self._form_qc, key
                )
        else:
            self._form_qc(key)

    def _form_qc(self, key: tuple) -> None:
        block_id, round_number, height = key
        if self.crashed or block_id in self._formed_qcs:
            return
        bucket = self._collected_votes.pop(key, None)
        self._pending_qc_forms.discard(key)
        if bucket is None or len(bucket) < self.config.quorum():
            return
        votes = tuple(bucket[voter] for voter in sorted(bucket))
        qc = QuorumCertificate(
            block_id=block_id, round=round_number, height=height, votes=votes
        )
        self._formed_qcs.add(block_id)
        if self.tracer is not None:
            self.tracer.emit(
                self.context.now, "qc_formed", round=round_number,
                height=height, block=block_id.short(), count=len(votes),
            )
        self._process_qc(qc, self.context.now)
        if (
            self.config.linear_votes
            and self.config.leader_of(round_number + 1) == self.replica_id
        ):
            # Linear vote collection: the collector re-broadcasts the
            # aggregated certificate so peers learn it one hop after
            # formation instead of waiting for it to ride inside the
            # next proposal.  The collector check matters because
            # replicas other than the designated collector may
            # aggregate too (timeout-recovered votes, Streamlet's
            # all-to-all mode) — only the designated one may fan out.
            self.context.multicast(
                QCMsg(sender=self.replica_id, qc=qc), include_self=False
            )

    def _on_qc_msg(self, src: int, msg: QCMsg) -> None:
        """Ingest a collector's aggregated-QC broadcast (linear mode).

        The certificate is self-certifying — ``2f + 1`` signed votes —
        so validation is the ordinary QC check regardless of which peer
        relayed it.
        """
        del src
        qc = msg.qc
        if qc.is_genesis():
            return
        if self.config.verify_signatures and not qc.validate(
            self.context.registry, self.config.quorum()
        ):
            self._c_invalid_messages.inc()
            return
        self._on_relayed_qc(qc)
        self._process_qc(qc, self.context.now)

    def _on_relayed_qc(self, qc: QuorumCertificate) -> None:
        """Hook: a validated QC broadcast is about to be ingested."""

    # ------------------------------------------------------------------
    # QC processing
    # ------------------------------------------------------------------

    def _process_qc(self, qc: QuorumCertificate, now: float) -> None:
        """Certify ``qc``'s block (first sight only), or park the QC
        until the block arrives.  Families wrap this with the state a
        certificate moves besides certification."""
        if qc.block_id in self.store:
            if qc.block_id not in self._qcs_processed:
                self._qcs_processed.add(qc.block_id)
                self.store.record_qc(qc)
                tracer = self.tracer
                if tracer is None:
                    self._on_new_certification(qc, now)
                else:
                    tracer.emit(
                        now, "qc", round=qc.round, height=qc.height,
                        block=qc.block_id.short(), count=len(qc.votes),
                    )
                    commits_before = len(self.commit_tracker.commit_order)
                    self._on_new_certification(qc, now)
                    for event in self.commit_tracker.commit_order[commits_before:]:
                        tracer.emit(
                            now, "commit", round=event.round,
                            height=event.height, block=event.block_id.short(),
                        )
        else:
            self._pending_qcs.setdefault(qc.block_id, qc)
            if self.sync is not None and not qc.is_genesis():
                # A QC certifying a block we have never seen: fetch
                # its certified ancestor chain from peers.
                self.sync.note_missing(qc.block_id)

    # ------------------------------------------------------------------
    # sync plumbing
    # ------------------------------------------------------------------

    def _on_sync_request(self, src: int, msg) -> None:
        """Serve a peer's catch-up request (adversary seam: a
        response-withholding behaviour overrides this to drop it)."""
        if self.sync is not None:
            self.sync.serve(src, msg)

    def _on_sync_response(self, src: int, msg) -> None:
        if self.sync is None:
            return
        inserted, tip_qc = self.sync.accept(src, msg)
        if tip_qc is not None:
            self._process_qc(tip_qc, self.context.now)
        if inserted:
            self._handle_inserted_blocks(inserted)

    # ------------------------------------------------------------------
    # checkpoint plumbing
    # ------------------------------------------------------------------

    def _poll_checkpoint(self) -> None:
        """Let the checkpoint manager observe newly committed blocks.

        Every commit is triggered by some delivered message (votes,
        QCs, proposals, sync responses), so polling after delivery
        sees each one; with checkpointing off this is a no-op check.
        """
        if self.checkpoint is not None and not self.crashed:
            self.checkpoint.poll(self.context.now)

    def _on_truncated(self, pruned) -> None:
        """History below a stable checkpoint was pruned; clear every
        structure keyed by the dropped block ids (families and the SFT
        layer extend this with their own)."""
        self.commit_tracker.forget_pruned(pruned)
        self._drop_vote_buckets(pruned)
        for block_id in pruned:
            self._formed_qcs.discard(block_id)
            self._qcs_processed.discard(block_id)
            self._pending_qcs.pop(block_id, None)
            self._orphan_proposals.pop(block_id, None)

    def _drop_vote_buckets(self, block_ids) -> None:
        """Stop collecting votes for ``block_ids`` (any claimed fields)."""
        for key in [key for key in self._collected_votes if key[0] in block_ids]:
            del self._collected_votes[key]
            self._pending_qc_forms.discard(key)


class SFTMixin:
    """The paper's SFT layer over any :class:`BaseReplica` family.

    Exactly the additions of Figures 4 and 11: per-fork voted tips
    (:class:`~repro.core.strong_vote.VotingHistory`) from which each
    vote's marker — or Section 3.4 interval set — is computed, making
    votes strong-votes and QCs strong-QCs; endorsement tracking over
    the strong-QCs learned; and the strengthened commit rule, evaluated
    by the shared :class:`~repro.core.commit_rules.CommitTracker`.

    Endorsement bookkeeping is metrics-plumbing only: messages and
    votes do not depend on it, so non-observer replicas skip it
    (``observer`` flag) without changing the protocol — the paper's
    "marginal bookkeeping overhead".
    """

    #: The marker's conflict metric: ``"round"`` (SFT-DiemBFT) or
    #: ``"height"`` (SFT-Streamlet, Appendix D).
    marker_mode: str

    def __init__(self, config: ReplicaConfig, context: ReplicaContext) -> None:
        super().__init__(config, context)
        self.voting_history = VotingHistory(self.store, mode=self.marker_mode)

    def _make_commit_tracker(self) -> CommitTracker:
        self.endorsement = (
            EndorsementTracker(
                self.store,
                mode=self.marker_mode,
                naive=self.config.naive_accounting,
            )
            if self.config.observer
            else None
        )
        return CommitTracker(
            self.store,
            self.config.f,
            rule=self.commit_rule,
            endorsement=self.endorsement,
        )

    def _make_vote(self, block: Block) -> StrongVote:
        """Strong-vote: marker (or interval set) from the voting history."""
        if self.config.generalized_intervals:
            intervals = self.voting_history.intervals_for(
                block, window=self.config.interval_window
            ).pairs()
        else:
            intervals = ()
        vote = StrongVote(
            block_id=block.id(),
            block_round=block.round,
            height=block.height,
            voter=self.replica_id,
            marker=self.voting_history.marker_for(block),
            intervals=intervals,
        )
        return self._signed(vote)

    def _after_vote(self, block: Block) -> None:
        self.voting_history.record_vote(block)
        if self.wal is not None:
            # fsync the voted-tip set alongside the vote itself: the
            # marker computation after a restart depends on it.
            self.wal.record_tips(
                self.voting_history.tip_keys(),
                self.voting_history.highest_voted_round,
            )

    def restore_from_wal(self, state) -> None:
        super().restore_from_wal(state)
        self.voting_history.restore(
            state.voted_tips, state.highest_voted_round
        )

    def _on_truncated(self, pruned) -> None:
        super()._on_truncated(pruned)
        self.voting_history.forget_pruned(pruned)
        if self.endorsement is not None:
            self.endorsement.forget_pruned(pruned)

    def _on_new_certification(self, qc: QuorumCertificate, now: float) -> None:
        # Feed endorsements before the commit check so that a 3-chain
        # completed by this QC is immediately evaluated with fresh counts.
        if self.endorsement is not None:
            self.endorsement.add_strong_qc(qc, now)
        super()._on_new_certification(qc, now)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def endorser_count(self, block_id) -> int:
        if self.endorsement is None:
            return 0
        return self.endorsement.count(block_id)
