"""The simulator's client path: mempools and the load generator.

The paper's evaluation keeps leaders saturated ("sufficiently many
transactions are generated ... so that any leader always has enough
transactions").  Large benchmarks therefore use synthetic
:class:`~repro.types.transaction.TxBatch` payloads; the classes here
provide *real* transaction flow: :class:`KVWorkload` submits
:class:`~repro.app.kvstore.KVCommand` transactions to per-replica
:class:`Mempool` queues, leaders drain them into block payloads, and
each replica's commit stream removes them as its blocks commit.

Everything is deterministic: the command stream comes from its own
seeded RNG (keyed off the experiment seed, independent of the network
jitter stream), submissions tick on simulated time, and measurements
are recorded as blocks commit, on the simulated clock — so campaign
reports stay byte-identical across runs and worker counts with the
workload on.
"""

from __future__ import annotations

import random
from collections import OrderedDict

from repro.app.kvstore import KVCommand
from repro.crypto.hashing import HashDigest
from repro.types.transaction import Payload, Transaction


class Mempool:
    """FIFO pool of pending client transactions for one replica.

    Entries leave the pool only on commit (:meth:`drop_committed`, a
    listener on the owning replica's commit stream, or
    :meth:`remove_committed`), never on proposal: a leader whose round
    fails must not lose them.
    :meth:`make_payload` therefore *copies* from the queue, capped by
    ``max_block_transactions`` and, when non-zero, ``max_block_bytes``
    (a payload always takes at least one transaction so a jumbo entry
    cannot wedge the queue).  Two things keep a copy from re-shipping
    what is already on its way to commit:

    * ``exclude`` — the txids the caller knows the proposal's
      uncommitted ancestors already carry.  The TCP tier, where clients
      broadcast every request to all replicas and so every leader holds
      every transaction, passes the set read off its block store
      (``ReplicaHost._payload_source``): each request is proposed once,
      and if that chain is abandoned the set no longer names it, so it
      is eligible again without a timer.
    * ``pipelined`` — for harnesses that submit each transaction to one
      mempool and do not consult the chain.  Off is stop-and-wait: each
      payload copies the uncommitted front of the queue.  On marks
      copied transactions *in flight* for ``inflight_timeout`` seconds
      and skips them in later payloads, so consecutive proposals carry
      fresh batches; a proposal that went nowhere (failed round,
      crashed leader) becomes eligible again when the timeout lapses.

    Skipped entries keep their queue position either way.
    """

    def __init__(
        self,
        max_block_transactions: int = 1000,
        max_block_bytes: int = 0,
        pipelined: bool = False,
        inflight_timeout: float = 1.0,
    ) -> None:
        self.max_block_transactions = max_block_transactions
        self.max_block_bytes = max_block_bytes
        self.pipelined = pipelined
        self.inflight_timeout = inflight_timeout
        self._pending: OrderedDict = OrderedDict()
        self._in_flight: dict = {}  # txid -> eligibility deadline
        self.submitted = 0

    def submit(self, transaction: Transaction) -> HashDigest:
        """Queue ``transaction`` and return the txid it is filed under.

        A resend of a still-pending transaction keeps its queue
        position and is not counted again.
        """
        txid = transaction.txid()
        if txid not in self._pending:
            self._pending[txid] = transaction
            self.submitted += 1
        return txid

    def pending_count(self) -> int:
        return len(self._pending)

    def remove(self, txid: HashDigest) -> bool:
        """Drop one committed transaction; False if it was not pending."""
        self._in_flight.pop(txid, None)
        return self._pending.pop(txid, None) is not None

    def remove_committed(self, transactions) -> int:
        """Drop transactions that made it into a committed block.

        Returns how many were actually pending — the rest were
        duplicates of something already removed (or never submitted
        here).
        """
        return sum(
            self.remove(transaction.txid()) for transaction in transactions
        )

    def drop_committed(self, block, now: float) -> None:
        """Commit listener: ``block``'s transactions leave the pool."""
        del now
        self.remove_committed(block.payload.transactions)

    def payload_source(self, now: float, parent_id=None) -> Payload:
        """``BaseReplica.payload_source`` for the simulator harnesses,
        which rely on ``pipelined`` (or accept re-proposal) rather than
        on what the chain under ``parent_id`` already carries."""
        del parent_id
        return self.make_payload(now)

    def make_payload(self, now: float, exclude=()) -> Payload:
        """Copy up to a block's worth of transactions into a payload,
        skipping ``exclude``d txids and, when pipelined, in-flight ones.
        """
        in_flight = self._in_flight
        if self.pipelined and in_flight:
            expired = [
                txid for txid, deadline in in_flight.items() if deadline <= now
            ]
            for txid in expired:
                del in_flight[txid]
        front = []
        size = 0
        max_bytes = self.max_block_bytes
        for txid, transaction in self._pending.items():
            if txid in exclude or (self.pipelined and txid in in_flight):
                continue
            tx_size = transaction.size_bytes()
            if front and max_bytes and size + tx_size > max_bytes:
                break
            front.append((txid, transaction))
            size += tx_size
            if len(front) >= self.max_block_transactions:
                break
        if self.pipelined:
            deadline = now + self.inflight_timeout
            for txid, _transaction in front:
                in_flight[txid] = deadline
        return Payload(
            transactions=tuple(transaction for _txid, transaction in front)
        )


class KVWorkload:
    """Open-loop deterministic KV transaction generator over a cluster.

    The load generator behind the ``workload_rate`` scenario knob.
    Submits ``rate`` transactions per second round-robin across
    replicas' mempools, and :meth:`attach` has each replica propose
    from its own (capped by that replica's
    ``batch_size``/``max_batch_bytes`` config, honouring its
    ``pipelined_proposals`` drain discipline).  Committed throughput
    counts *unique* transactions — the exactly-once count a
    :class:`~repro.app.kvstore.LedgerExecutor` applies — and
    re-proposed duplicates are reported separately.
    """

    def __init__(
        self,
        cluster,
        rate: float,
        payload_bytes: int = 64,
        seed: int = 0,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"workload rate must be positive, got {rate!r}")
        self.cluster = cluster
        self.rate = rate
        self.payload_bytes = payload_bytes
        self.rng = random.Random(f"kv-workload:{seed}")
        self.sequence = 0
        self.submitted = 0
        self._interval = 1.0 / rate
        self.mempools: dict[int, Mempool] = {}
        self._block_txids: dict = {}  # committed block id -> its txids
        self._first_commit: dict = {}  # txid -> (committed, submitted)
        for replica in cluster.replicas:
            config = replica.config
            per_round = getattr(config, "round_duration", None)
            if not per_round:
                per_round = config.round_timeout
            self.mempools[replica.replica_id] = Mempool(
                max_block_transactions=config.batch_size,
                max_block_bytes=config.max_batch_bytes,
                pipelined=config.pipelined_proposals,
                # In-flight entries outlive a full 3-chain commit
                # before re-qualifying for proposals.
                inflight_timeout=8.0 * per_round,
            )
            self.attach(replica)

    def attach(self, replica) -> None:
        """Wire ``replica`` (at build, or reborn after a restart) to its
        mempool: it proposes from the mempool, and each block it commits
        is recorded here and removed from the mempool."""
        mempool = self.mempools[replica.replica_id]
        tracker = replica.commit_tracker
        tracker.add_commit_listener(self.record_commit)
        tracker.add_commit_listener(mempool.drop_committed)
        replica.payload_source = mempool.payload_source

    def start(self) -> None:
        simulator = self.cluster.simulator
        simulator.schedule_at(simulator.now, self._tick)

    def _tick(self) -> None:
        simulator = self.cluster.simulator
        command = KVCommand.sample(self.rng, self.sequence, self.payload_bytes)
        target = self.sequence % len(self.cluster.replicas)
        transaction = command.to_transaction(
            client_id=target,
            sequence=self.sequence,
            submitted_at=simulator.now,
        )
        self.sequence += 1
        replica = self.cluster.replicas[target]
        if not replica.crashed:
            self.mempools[target].submit(transaction)
            self.submitted += 1
        simulator.schedule_in(self._interval, self._tick)

    # ------------------------------------------------------------------
    # measurement, recorded as blocks commit
    # ------------------------------------------------------------------

    def record_commit(self, block, now: float) -> None:
        """Commit listener of every replica instance: notes a block's
        txids the first time any replica commits it."""
        block_id = block.id()
        if block_id in self._block_txids:
            return
        txids = []
        for transaction in block.payload.transactions:
            txid = transaction.txid()
            txids.append(txid)
            if txid not in self._first_commit:
                self._first_commit[txid] = (now, transaction.submitted_at)
        self._block_txids[block_id] = txids

    def committed_tx_stats(self, replica) -> tuple[int, int]:
        """``(unique, duplicates)`` committed through ``replica``'s log.

        ``unique`` counts distinct transaction ids in committed blocks;
        ``duplicates`` counts the re-proposed extra occurrences that
        wasted block space — the quantity pipelining suppresses.
        """
        seen: set = set()
        duplicates = 0
        for event in replica.commit_tracker.commit_order:
            for txid in self._block_txids.get(event.block_id, ()):
                if txid in seen:
                    duplicates += 1
                else:
                    seen.add(txid)
        return len(seen), duplicates

    def end_to_end_latencies(self) -> list:
        """Submit-to-first-commit latency (at any replica) for every
        committed txn."""
        return [first - submit for first, submit in self._first_commit.values()]
