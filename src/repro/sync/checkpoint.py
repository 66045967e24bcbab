"""Per-replica checkpoint subprotocol: stable state digests above sync.

Block-sync (:mod:`repro.sync.manager`) lets a replica fetch certified
chains it missed, but two unbounded costs remain for long-running
traffic: every replica's :class:`~repro.types.chain.BlockStore` keeps
the full history forever, and a replica thousands of rounds behind must
replay everything from genesis.  The PBFT checkpoint subprotocol
(Castro–Liskov §4.3) closes both, adapted here to chained BFT:

* every ``checkpoint_interval`` commits, each replica images the state
  its :class:`~repro.app.kvstore.LedgerExecutor` (run on the commit
  stream) holds at exactly that commit height and multicasts a signed
  :class:`CheckpointMsg` carrying a digest over ``(height, block,
  kvstore state, applied txids)``;
* ``2f + 1`` matching digests from distinct signers form a **stable
  checkpoint certificate** — proof the state is durable at ``f``
  Byzantine faults — letting every replica truncate blocks below the
  checkpoint and drop stale orphans/QCs/memo entries;
* a replica that discovers a stable checkpoint more than one interval
  ahead of its own committed height joins via
  :class:`SnapshotRequestMsg` / :class:`SnapshotResponseMsg` — full
  kvstore image + certificate, validated whole before any mutation
  (the block-sync discipline), then suffix-synced through the ordinary
  :class:`~repro.sync.manager.SyncManager` path.

The digest deliberately includes the executor's applied-transaction-id
set: a transaction proposed below the checkpoint and re-proposed above
it must be deduplicated on the joiner too, or its state diverges from
replicas that replayed the full log.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.app.kvstore import LedgerExecutor
from repro.core.commit_rules import CommitEvent
from repro.crypto.hashing import hash_fields
from repro.sync.fetch import PeerFetcher
from repro.sync.manager import SYNC_RETRY, SYNC_ROUND_LAG
from repro.types.messages import (
    CheckpointMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
)

#: The snapshot fetch's key: there is at most one in flight.
_SNAPSHOT = None


def state_digest(height, block_id, state_items, applied_txids):
    """The digest 2f+1 replicas must agree on for a stable checkpoint."""
    return hash_fields(
        "checkpoint-state",
        height,
        block_id.value,
        tuple(state_items),
        tuple(txid.value for txid in applied_txids),
    )


@dataclass(slots=True)
class _Snapshot:
    """One locally executed checkpoint image, kept until superseded."""

    height: int
    block_id: object
    digest: object
    state: tuple
    applied_txids: tuple
    applied_count: int
    rejected_count: int


@dataclass(slots=True)
class _StableCheckpoint:
    """A quorum-certified checkpoint: ``signers`` hold 2f+1 signatures."""

    height: int
    block_id: object
    digest: object
    signers: tuple  # ((replica_id, Signature), ...), sorted by id


class CheckpointManager:
    """Signs, collects, and applies checkpoints for one replica.

    Owned by one replica (attached when ``checkpoint_interval > 0``).
    Its executor runs on the replica's commit stream, which also takes
    each interval's state image; :meth:`poll`, after every delivery,
    multicasts the digests due and truncates.
    """

    def __init__(self, replica) -> None:
        self.replica = replica
        self.config = replica.config
        self.context = replica.context
        self.interval = replica.config.checkpoint_interval
        self.executor = LedgerExecutor()
        replica.commit_tracker.add_commit_listener(self._on_commit)
        self._signed_height = 0
        #: Images taken at commit whose digests :meth:`poll` sends.
        self._due: list[_Snapshot] = []
        #: (height, block_id, digest) → {signer: signature}
        self._pending: dict = {}
        #: Bounded like the orphan pool: a Byzantine peer can mint
        #: CheckpointMsgs at arbitrary far-future interval multiples
        #: with arbitrary digests, and certificate formation only
        #: prunes keys at or below the new stable height.
        self._max_pending = max(16, 4 * self.config.n)
        #: own checkpoint images by height, serving + digest evidence
        self._snapshots: dict[int, _Snapshot] = {}
        self.stable: _StableCheckpoint | None = None
        self._stable_truncated = False
        # Statistics (deterministic; surfaced in campaign metrics):
        # counters in the owning replica's registry.
        metrics = replica.metrics
        self._c_checkpoints_signed = metrics.counter("checkpoint.signed")
        self._c_certificates_formed = metrics.counter("checkpoint.certificates")
        self._c_blocks_truncated = metrics.counter("checkpoint.blocks_truncated")
        self._c_snapshots_served = metrics.counter("checkpoint.snapshots_served")
        self._c_snapshots_installed = metrics.counter(
            "checkpoint.snapshots_installed"
        )
        self._c_invalid_snapshots = metrics.counter(
            "checkpoint.invalid_snapshots"
        )
        self._c_peer_rotations = metrics.counter("checkpoint.peer_rotations")
        # Snapshots are bulky; give peers a few sync-retry budgets.
        self._fetcher = PeerFetcher(
            replica, self._send_request, 4.0 * SYNC_RETRY,
            self._checkpoint_block_stored, self._c_peer_rotations,
        )

    # ------------------------------------------------------------------
    # driving: execute committed blocks, sign interval boundaries
    # ------------------------------------------------------------------

    def _on_commit(self, block, now: float) -> None:
        """Commit listener: execute ``block``; at an interval height,
        take the state image there for :meth:`poll` to sign."""
        del now
        self.executor.apply_block(block)
        height = block.height
        if height % self.interval or height <= self._signed_height:
            return
        snapshot = _Snapshot(
            height=height,
            block_id=block.id(),
            digest=None,
            state=self.executor.state.items(),
            applied_txids=self.executor.applied_txids(),
            applied_count=self.executor.state.applied,
            rejected_count=self.executor.state.rejected,
        )
        snapshot.digest = state_digest(
            height, snapshot.block_id, snapshot.state, snapshot.applied_txids
        )
        self._snapshots[height] = snapshot
        self._signed_height = height
        self._due.append(snapshot)

    def poll(self, now: float) -> None:
        """Emit the checkpoint digests taken since the last delivery."""
        if self.replica.crashed:
            return
        due, self._due = self._due, []
        for snapshot in due:
            self._emit_checkpoint(snapshot)
        self._try_truncate()

    def _emit_checkpoint(self, snapshot: _Snapshot) -> None:
        message = self.replica._signed(
            CheckpointMsg(
                sender=self.replica.replica_id,
                height=snapshot.height,
                block_id=snapshot.block_id,
                digest=snapshot.digest,
            )
        )
        self._c_checkpoints_signed.inc()
        tracer = self.replica.tracer
        if tracer is not None:
            tracer.emit(
                self.context.now,
                "checkpoint",
                height=snapshot.height,
                block=snapshot.block_id.short(),
                count=snapshot.applied_count,
            )
        self.context.multicast(message, include_self=True)

    # ------------------------------------------------------------------
    # collecting digests into certificates
    # ------------------------------------------------------------------

    def on_checkpoint(self, src: int, msg: CheckpointMsg) -> None:
        if msg.block_id is None or msg.digest is None:
            return
        if msg.height <= 0 or msg.height % self.interval != 0:
            return
        if self.stable is not None and msg.height <= self.stable.height:
            return
        if not self.replica._authentic(msg, msg.sender, src):
            return
        key = (msg.height, msg.block_id, msg.digest)
        signers = self._pending.setdefault(key, {})
        if msg.sender in signers:
            return
        signers[msg.sender] = msg.signature
        if len(signers) >= self.config.quorum():
            self._form_certificate(key, signers)
        elif len(self._pending) > self._max_pending:
            self._evict_pending()

    def _evict_pending(self) -> None:
        """Deterministic eviction past the cap: fewest signers first
        (farthest from a certificate), ties to the highest height
        (far-future flood keys before the live frontier), then ids."""
        victim = min(
            self._pending,
            key=lambda key: (
                len(self._pending[key]),
                -key[0],
                key[1].value,
                key[2].value,
            ),
        )
        del self._pending[victim]

    def _form_certificate(self, key, signers: dict) -> None:
        height, block_id, digest = key
        self._c_certificates_formed.inc()
        tracer = self.replica.tracer
        if tracer is not None:
            tracer.emit(
                self.context.now,
                "checkpoint_stable",
                height=height,
                block=block_id.short(),
                count=len(signers),
            )
        self.stable = _StableCheckpoint(
            height=height,
            block_id=block_id,
            digest=digest,
            signers=tuple(sorted(signers.items())),
        )
        self._stable_truncated = False
        # Everything below the new stable checkpoint is now moot.
        self._pending = {
            pending_key: pending_signers
            for pending_key, pending_signers in self._pending.items()
            if pending_key[0] > height
        }
        self._snapshots = {
            snap_height: snapshot
            for snap_height, snapshot in self._snapshots.items()
            if snap_height >= height
        }
        self._try_truncate()
        self._maybe_request_snapshot()

    def _local_height(self) -> int:
        commit_order = self.replica.commit_tracker.commit_order
        return commit_order[-1].height if commit_order else 0

    def _try_truncate(self) -> None:
        """Truncate below the stable checkpoint once it is locally final.

        Holding the checkpoint block is not enough: commits trail the
        stored tip by the chaining depth, so 2f+1 digests for height H
        can arrive while this replica has block H but has only
        committed through H-2.  Pruning then would drop uncommitted
        ancestors whose commit events never fire — the executor would
        silently skip their transactions and the commit log would gain
        a gap the prefix-consistency oracle flags.  Wait until local
        commitment has reached the checkpoint height; the
        snapshot-install path re-roots explicitly and never comes here.
        """
        if self.stable is None or self._stable_truncated:
            return
        store = self.replica.store
        block = store.maybe_get(self.stable.block_id)
        if block is None:
            return
        if self._local_height() < self.stable.height:
            return
        pruned = store.truncate_below(self.stable.block_id)
        self._stable_truncated = True
        self._c_blocks_truncated.inc(len(pruned))
        if pruned:
            self.replica._on_truncated(pruned)

    # ------------------------------------------------------------------
    # snapshot transfer: requesting
    # ------------------------------------------------------------------

    def _maybe_request_snapshot(self) -> None:
        """Fetch a snapshot when the stable checkpoint is out of reach.

        Within one interval of the stable height the ordinary block-sync
        path closes the gap faster than a full state transfer would.
        """
        if self.stable is None or self._fetcher.inflight:
            return
        if self._checkpoint_block_stored():
            return
        if self.stable.height - self._local_height() <= self.interval:
            return
        self._fetcher.start(_SNAPSHOT, goal=self.stable.height)

    def _checkpoint_block_stored(self, fetch=None) -> bool:
        """Resolved out of band: block-sync delivered the block."""
        del fetch
        return self.replica.store.maybe_get(self.stable.block_id) is not None

    def _send_request(self, fetch) -> None:
        request = self.replica._signed(
            SnapshotRequestMsg(
                sender=self.replica.replica_id,
                min_height=fetch.goal,
                nonce=fetch.nonce,
            )
        )
        tracer = self.replica.tracer
        if tracer is not None:
            tracer.emit(
                self.context.now,
                "snapshot_request",
                height=fetch.goal,
                detail=f"peer={fetch.peer}",
                count=fetch.attempts,
            )
        self.context.send(fetch.peer, request)

    # ------------------------------------------------------------------
    # snapshot transfer: serving
    # ------------------------------------------------------------------

    def serve_snapshot(self, src: int, msg: SnapshotRequestMsg) -> None:
        if not self.replica._authentic(msg, msg.sender, src):
            return
        stable = self.stable
        snapshot = (
            self._snapshots.get(stable.height) if stable is not None else None
        )
        block = (
            self.replica.store.maybe_get(stable.block_id)
            if stable is not None
            else None
        )
        if (
            stable is None
            or snapshot is None
            or block is None
            or stable.height < msg.min_height
            or snapshot.digest != stable.digest
        ):
            # Honest miss: nothing stable (or nothing new enough) to
            # ship — including a stable cert whose checkpoint block
            # this replica never held, which the requester would
            # otherwise reject and count against an honest peer.
            response = SnapshotResponseMsg(
                sender=self.replica.replica_id, nonce=msg.nonce
            )
        else:
            response = SnapshotResponseMsg(
                sender=self.replica.replica_id,
                nonce=msg.nonce,
                cert_height=stable.height,
                cert_block_id=stable.block_id,
                cert_digest=stable.digest,
                cert_signers=stable.signers,
                block=block,
                state=snapshot.state,
                applied_txids=snapshot.applied_txids,
                applied_count=snapshot.applied_count,
                rejected_count=snapshot.rejected_count,
            )
            self._c_snapshots_served.inc()
            tracer = self.replica.tracer
            if tracer is not None:
                tracer.emit(
                    self.context.now,
                    "snapshot_serve",
                    height=stable.height,
                    block=stable.block_id.short(),
                    detail=f"peer={src}",
                )
        self.context.send(src, self.replica._signed(response))

    # ------------------------------------------------------------------
    # snapshot transfer: installing
    # ------------------------------------------------------------------

    def on_snapshot_response(self, src: int, msg: SnapshotResponseMsg) -> None:
        fetch = self._fetcher.match(src, msg)
        if fetch is None:
            return
        if not msg.cert_signers:
            # Honest miss from this peer; try the next one.
            self._fetcher.rotate(fetch)
            return
        if msg.cert_height <= self._local_height():
            # Ordinary block-sync raced the transfer and this replica is
            # already at (or past) the offered checkpoint — the fetch is
            # satisfied, not the response invalid.
            self._fetcher.done(fetch)
            return
        if not self._validate_snapshot(msg, fetch):
            self._c_invalid_snapshots.inc()
            self._fetcher.rotate(fetch)
            return
        self._fetcher.done(fetch)
        self._install_snapshot(msg)

    def _validate_snapshot(self, msg: SnapshotResponseMsg, fetch) -> bool:
        """Whole-response validation before any mutation."""
        if msg.block is None or msg.cert_block_id is None:
            return False
        if msg.cert_height < fetch.goal:
            return False
        if msg.block.id() != msg.cert_block_id:
            return False
        if msg.block.height != msg.cert_height:
            return False
        if msg.cert_height % self.interval != 0:
            return False
        if msg.cert_height <= self._local_height():
            return False
        # The digest must recompute from the shipped state image.
        digest = state_digest(
            msg.cert_height, msg.cert_block_id, msg.state, msg.applied_txids
        )
        if digest != msg.cert_digest:
            return False
        # fetch.peer is the transport source: match() paired them.
        if not self.replica._authentic(msg, msg.sender, fetch.peer):
            return False
        if self.config.verify_signatures:
            # The checkpoint payload is deliberately sender-free, so
            # every signer in the certificate signed identical bytes.
            probe = CheckpointMsg(
                sender=0,
                height=msg.cert_height,
                block_id=msg.cert_block_id,
                digest=msg.cert_digest,
            )
            signatures = []
            for replica_id, signature in msg.cert_signers:
                if signature is None or signature.signer != replica_id:
                    return False
                signatures.append(signature)
            if not self.context.registry.verify_quorum(
                probe.signing_payload(), signatures, self.config.quorum()
            ):
                return False
        elif len({signer for signer, _sig in msg.cert_signers}) < (
            self.config.quorum()
        ):
            return False
        return True

    def _install_snapshot(self, msg: SnapshotResponseMsg) -> None:
        """Adopt the checkpoint wholesale: store root, tracker, executor.

        The jump to the checkpoint height fires no commit listener, for
        the checkpoint block or the range it skips: the executor takes
        the transferred state and dedup set instead, and transactions
        of that range still pending in this replica's mempool stay
        there and are proposed again.
        """
        replica = self.replica
        now = self.context.now
        pruned, flushed = replica.store.adopt_root(msg.block)
        if pruned:
            replica._on_truncated(pruned)
        tracker = replica.commit_tracker
        block_id = msg.block.id()
        if block_id not in tracker.committed:
            event = CommitEvent(
                block_id=block_id,
                round=msg.block.round,
                height=msg.block.height,
                committed_at=now,
                created_at=msg.block.created_at,
            )
            tracker.committed[block_id] = event
            tracker.commit_order.append(event)
            tracker.snapshot_heights.add(msg.block.height)
            if msg.block.round > tracker.highest_committed_round:
                tracker.highest_committed_round = msg.block.round
        self.executor.install_snapshot(
            msg.state,
            msg.applied_txids,
            applied_count=msg.applied_count,
            rejected_count=msg.rejected_count,
        )
        self.stable = _StableCheckpoint(
            height=msg.cert_height,
            block_id=msg.cert_block_id,
            digest=msg.cert_digest,
            signers=msg.cert_signers,
        )
        self._stable_truncated = True  # adopt_root already re-rooted
        self._signed_height = msg.cert_height
        self._snapshots = {
            msg.cert_height: _Snapshot(
                height=msg.cert_height,
                block_id=msg.cert_block_id,
                digest=msg.cert_digest,
                state=tuple(msg.state),
                applied_txids=tuple(msg.applied_txids),
                applied_count=msg.applied_count,
                rejected_count=msg.rejected_count,
            )
        }
        self._pending = {
            key: signers
            for key, signers in self._pending.items()
            if key[0] > msg.cert_height
        }
        self._c_snapshots_installed.inc()
        tracer = replica.tracer
        if tracer is not None:
            tracer.emit(
                now,
                "snapshot_install",
                round=msg.block.round,
                height=msg.cert_height,
                block=msg.cert_block_id.short(),
                detail=f"peer={msg.sender}",
            )
        if flushed:
            # Buffered orphans that re-attached under the new root flow
            # through the ordinary post-insertion path (voting, QCs).
            replica._handle_inserted_blocks(flushed)
        # Suffix sync: chase the certified chain above the checkpoint
        # through the ordinary block-sync path (a tip fetch resolved
        # once something above the checkpoint round is certified).
        if replica.sync is not None:
            replica.sync.note_round_lag(
                msg.block.round + SYNC_ROUND_LAG + 1,
                msg.block.round,
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stable_height(self) -> int:
        return self.stable.height if self.stable is not None else 0

    def stats(self) -> dict:
        return {
            "checkpoints_signed": self._c_checkpoints_signed.value,
            "certificates_formed": self._c_certificates_formed.value,
            "blocks_truncated": self._c_blocks_truncated.value,
            "snapshots_served": self._c_snapshots_served.value,
            "snapshots_installed": self._c_snapshots_installed.value,
            "invalid_snapshots": self._c_invalid_snapshots.value,
            "peer_rotations": self._c_peer_rotations.value,
        }
