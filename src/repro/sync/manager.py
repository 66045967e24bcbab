"""Per-replica block-sync state machine.

The :class:`SyncManager` closes the gap the fuzzer's two standing
liveness finds trace to: a correct replica that misses a certified
block (withheld proposal, partition, reordering) had no way to fetch
it, so its chain froze at the gap while the rest of the cluster moved
on.  The manager mirrors DiemBFT's block-retrieval subprotocol:

* **staleness detection** — the owning replica reports every proposal
  or QC that references an unknown block (:meth:`note_missing`) and
  every timeout-driven round jump that leaves the local certified tip
  far behind (:meth:`note_round_lag`);
* **fetching** — one in-flight request per missing target, sent to one
  peer at a time with a deterministic rotation order; an unanswered or
  useless request is retried against the next peer after
  ``sync_retry`` seconds (this is what defeats response-withholding
  peers);
* **validation** — a response is applied only if its chain links
  hash-to-hash, every embedded QC (and the optional tip QC)
  cryptographically re-validates against the key registry, and blocks
  structurally extend their parents; any failure rejects the whole
  response *before* the block store is touched;
* **iterated deepening** — one response carries at most
  ``sync_max_blocks`` ancestors; if the oldest received block's parent
  is still unknown the manager immediately chases it, so arbitrarily
  deep gaps close in a bounded number of round trips.

The manager is pure plumbing: it never votes, never signs votes, and
never advances rounds itself — inserted blocks flow through the
replica's ordinary ``_handle_inserted_blocks`` path, so voting and
commit rules see synced blocks exactly as if they had arrived in
order.
"""

from __future__ import annotations

from repro.sync.fetch import PeerFetcher
from repro.types.messages import SyncRequestMsg, SyncResponseMsg

#: Sentinel key for the tip (round-lag) fetch in the in-flight table.
_TIP = None


class SyncManager:
    """Detects staleness and fetches missing certified chains.

    Owned by one replica; reads the replica's ``store``, ``config``,
    and ``context`` and talks to peers through signed
    :class:`~repro.types.messages.SyncRequestMsg` /
    :class:`~repro.types.messages.SyncResponseMsg` pairs.
    """

    def __init__(self, replica) -> None:
        self.replica = replica
        self.config = replica.config
        self.context = replica.context
        # Statistics (deterministic; surfaced in campaign metrics):
        # counters in the owning replica's registry.
        metrics = replica.metrics
        self._c_requests_sent = metrics.counter("sync.requests_sent")
        self._c_responses_served = metrics.counter("sync.responses_served")
        self._c_responses_applied = metrics.counter("sync.responses_applied")
        self._c_invalid_responses = metrics.counter("sync.invalid_responses")
        self._c_blocks_synced = metrics.counter("sync.blocks_synced")
        self._c_peer_rotations = metrics.counter("sync.peer_rotations")
        # A target the budget gave up on is restarted by the next
        # staleness signal.
        self._fetcher = PeerFetcher(
            replica, self._send_request, self.config.sync_retry,
            self._resolved, self._c_peer_rotations,
        )

    # ------------------------------------------------------------------
    # staleness detection (called by the owning replica)
    # ------------------------------------------------------------------

    def note_missing(self, block_id) -> None:
        """A proposal or QC referenced ``block_id`` and we don't have it."""
        if block_id in self.replica.store or block_id in self._fetcher.inflight:
            return
        self._fetcher.start(block_id)

    def note_round_lag(self, round_number: int, certified_round: int) -> None:
        """The round advanced past the local certified tip by too much."""
        if round_number - certified_round <= self.config.sync_round_lag:
            return
        if _TIP in self._fetcher.inflight:
            return
        self._fetcher.start(
            _TIP, goal=round_number - self.config.sync_round_lag
        )

    # ------------------------------------------------------------------
    # fetching: the request and its resolution (PeerFetcher retries
    # and rotates)
    # ------------------------------------------------------------------

    def _send_request(self, fetch) -> None:
        request = self.replica._signed(
            SyncRequestMsg(
                sender=self.replica.replica_id,
                target=fetch.target,
                max_blocks=self.config.sync_max_blocks,
                nonce=fetch.nonce,
            )
        )
        self._c_requests_sent.inc()
        tracer = self.replica.tracer
        if tracer is not None:
            target = "" if fetch.target is _TIP else fetch.target.short()
            tracer.emit(
                self.context.now, "sync_request", block=target,
                detail=f"peer={fetch.peer}" + ("" if target else " target=tip"),
                count=fetch.attempts,
            )
        self.context.send(fetch.peer, request)

    def _resolved(self, fetch) -> bool:
        if fetch.target is _TIP:
            certified = self.replica.store.highest_certified_block().round
            return certified >= fetch.goal
        return fetch.target in self.replica.store

    # ------------------------------------------------------------------
    # serving peers
    # ------------------------------------------------------------------

    def serve(self, src: int, msg: SyncRequestMsg) -> None:
        """Answer a peer's request with a certified ancestor chain."""
        if not self.replica._authentic(msg, msg.sender, src):
            return
        store = self.replica.store
        if msg.target is None:
            start = store.highest_certified_block()
            if start.is_genesis():
                start = None
        else:
            start = store.maybe_get(msg.target)
        blocks = []
        limit = max(1, min(msg.max_blocks, self.config.sync_max_blocks))
        cursor = start
        while (
            cursor is not None
            and not cursor.is_genesis()
            and len(blocks) < limit
        ):
            blocks.append(cursor)
            cursor = store.maybe_get(cursor.parent_id)
        tip_qc = store.qc_for(blocks[0].id()) if blocks else None
        response = self.replica._signed(
            SyncResponseMsg(
                sender=self.replica.replica_id,
                nonce=msg.nonce,
                blocks=tuple(blocks),
                tip_qc=tip_qc,
            )
        )
        self._c_responses_served.inc()
        tracer = self.replica.tracer
        if tracer is not None:
            tracer.emit(
                self.context.now, "sync_serve",
                detail=f"peer={src}", count=len(blocks),
            )
        self.context.send(src, response)

    # ------------------------------------------------------------------
    # applying responses
    # ------------------------------------------------------------------

    def accept(self, src: int, msg: SyncResponseMsg):
        """Validate and apply one response.

        Returns ``(inserted_blocks, tip_qc)`` — ``tip_qc`` only when it
        validated and certifies the newest received block.  Invalid
        responses are dropped whole (no store mutation) and the fetch
        rotates to the next peer immediately.
        """
        fetch = self._fetcher.match(src, msg)
        if fetch is None:
            return [], None
        if not self._validate(src, msg):
            self._c_invalid_responses.inc()
            self._fetcher.rotate(fetch)
            return [], None
        if not msg.blocks:
            # Honest miss: this peer doesn't have the target either.
            self._fetcher.rotate(fetch)
            return [], None

        store = self.replica.store
        inserted = []
        for block in reversed(msg.blocks):  # oldest first
            if block.id() in store:
                continue
            inserted.extend(store.add_block(block))
        tip_qc = None
        if msg.tip_qc is not None and msg.tip_qc.block_id == msg.blocks[0].id():
            tip_qc = msg.tip_qc
        self._c_responses_applied.inc()
        self._c_blocks_synced.inc(len(inserted))
        tracer = self.replica.tracer
        if tracer is not None:
            tracer.emit(
                self.context.now, "sync_apply",
                detail=f"peer={src}", count=len(inserted),
            )

        if fetch.target is _TIP and not self._resolved(fetch):
            # The tip fetch keeps rotating until the certified round
            # actually caught up.
            self._fetcher.rotate(fetch)
        else:
            # A valid chain response completes a block fetch: the
            # target is now stored or orphan-buffered, and any deeper
            # gap is chased below.  (A useless-but-valid chain from a
            # Byzantine peer just ends the fetch; the next staleness
            # signal restarts it.)
            self._fetcher.done(fetch)
        # Iterated deepening: chase a still-unknown parent of the
        # oldest block we just learned about.
        oldest = msg.blocks[-1]
        if oldest.parent_id is not None and oldest.parent_id not in store:
            self.note_missing(oldest.parent_id)
        return inserted, tip_qc

    def _validate(self, src: int, msg: SyncResponseMsg) -> bool:
        """Whole-response validation before any insertion."""
        if not self.replica._authentic(msg, msg.sender, src):
            return False
        registry = self.context.registry
        quorum = self.config.quorum()
        blocks = msg.blocks
        for index, block in enumerate(blocks):
            if block.is_genesis() or block.qc is None:
                return False
            if block.qc.block_id != block.parent_id:
                return False
            if index + 1 < len(blocks):
                nxt = blocks[index + 1]
                if block.parent_id != nxt.id():
                    return False
                if block.height != nxt.height + 1 or block.round <= nxt.round:
                    return False
            if self.config.verify_signatures and not block.qc.validate(
                registry, quorum
            ):
                return False
        if msg.tip_qc is not None:
            if not blocks or msg.tip_qc.block_id != blocks[0].id():
                return False
            if self.config.verify_signatures and not msg.tip_qc.validate(
                registry, quorum
            ):
                return False
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def inflight(self) -> int:
        return len(self._fetcher.inflight)

    def stats(self) -> dict:
        return {
            "requests": self._c_requests_sent.value,
            "responses_served": self._c_responses_served.value,
            "responses_applied": self._c_responses_applied.value,
            "invalid_responses": self._c_invalid_responses.value,
            "blocks_synced": self._c_blocks_synced.value,
            "peer_rotations": self._c_peer_rotations.value,
        }
