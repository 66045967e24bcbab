"""The client path: mempools, their wiring to a replica on either tier,
and the simulator's load generator.

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
from repro.core.commit_rules import CHAIN_LENGTH
from repro.crypto.hashing import HashDigest
from repro.types.transaction import Payload, Transaction


class Mempool:
    """FIFO pool of pending client transactions for one replica.

    Entries leave the pool only on commit (:meth:`remove_committed`,
    called by the commit listener :func:`attach` registers), never on
    proposal: a leader whose round fails must not lose them.
    :meth:`make_payload` therefore *copies* from the queue, capped by
    ``max_block_transactions``, skipping ``exclude``: the txids the
    proposal's uncommitted ancestors already carry (:func:`chain_walk`).
    Each transaction is thus proposed once; if that chain is abandoned
    the set no longer names it, so it is eligible again without a timer.
    Skipped entries keep their queue position.

    ``pipelined`` also skips copied transactions for
    ``inflight_timeout`` seconds: behind the chain walk, that only holds
    back one whose block fell off the chain.  It stays because the
    frozen benchmark names it.
    """

    def __init__(
        self,
        max_block_transactions: int = 1000,
        pipelined: bool = False,
        inflight_timeout: float = 1.0,
    ) -> None:
        self.max_block_transactions = max_block_transactions
        self.pipelined = pipelined
        self.inflight_timeout = inflight_timeout
        self._pending: OrderedDict = OrderedDict()
        self._in_flight: dict = {}  # txid -> eligibility deadline
        self.submitted = 0
        self.replica = None  # whose chain payload_source walks; see attach

    @classmethod
    def for_replica(cls, config) -> "Mempool":
        """The pool a replica with ``config`` proposes from, on either
        tier: its batch cap and its drain discipline."""
        per_round = getattr(config, "round_duration", None) or config.round_timeout
        return cls(
            max_block_transactions=config.batch_size,
            pipelined=config.pipelined_proposals,
            inflight_timeout=8.0 * per_round,  # outlives a 3-chain commit
        )

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

    def remove_committed(self, transactions) -> int:
        """Drop transactions that made it into a committed block.

        Returns how many were actually pending — the rest were
        duplicates of something already removed (or never submitted
        here).
        """
        removed = 0
        for transaction in transactions:
            txid = transaction.txid()
            self._in_flight.pop(txid, None)
            removed += self._pending.pop(txid, None) is not None
        return removed

    def payload_source(self, now: float, parent_id=None) -> Payload:
        """The simulator tier's ``BaseReplica.payload_source``: what
        the uncommitted chain under ``parent_id`` does not carry yet,
        else the empty payload — the simulator has no heartbeat to force
        a deferred round, so it never defers.  Before :func:`attach`
        binds a replica no chain is known."""
        if self.replica is None:
            return self.make_payload(now)
        carried, _needed = chain_walk(self.replica, parent_id)
        return self.make_payload(now, carried)

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
        for txid, transaction in self._pending.items():
            if txid in exclude or (self.pipelined and txid in in_flight):
                continue
            front.append((txid, transaction))
            if len(front) >= self.max_block_transactions:
                break
        if self.pipelined:
            deadline = now + self.inflight_timeout
            for txid, _transaction in front:
                in_flight[txid] = deadline
        return Payload(
            transactions=tuple(transaction for _txid, transaction in front)
        )


def chain_walk(replica, parent_id) -> tuple[set, bool]:
    """One walk down from ``parent_id`` in ``replica``'s store:
    ``(carried, needed)`` for a block extending it.

    Carried are the txids above the last commit (every commit has
    already removed its transactions from the mempool).  Needed means a
    transaction block above the last commit, or among the parent's
    ``CHAIN_LENGTH`` nearest blocks: the new proposal carries the QC
    that commits that one at every other replica.
    """
    carried: set = set()
    store = replica.store
    if parent_id not in store:
        return carried, False
    commit_order = replica.commit_tracker.commit_order
    floor = commit_order[-1].height if commit_order else 0
    needed = False
    for depth, block in enumerate(store.iter_ancestors(parent_id)):
        near = depth < CHAIN_LENGTH
        above = block.height > floor
        if not (above or near):
            break
        transactions = block.payload.transactions
        if not transactions:
            continue
        needed = True
        if above:
            carried.update(transaction.txid() for transaction in transactions)
    return carried, needed


def attach(replica, mempool: Mempool, sink, source=None) -> None:
    """Wire ``replica`` (at build, or reborn after a restart) to
    ``mempool`` on either tier.

    The replica proposes through ``source``, by default
    :meth:`Mempool.payload_source`; a tier that defers idle rounds
    passes its own, built on :func:`chain_walk` too.  One commit
    listener drops each committed block's transactions from the mempool
    and calls ``sink(block, now, removed)`` with how many were pending.
    """
    mempool.replica = replica
    replica.payload_source = source or mempool.payload_source

    def on_commit(block, now: float) -> None:
        sink(block, now, mempool.remove_committed(block.payload.transactions))

    replica.commit_tracker.add_commit_listener(on_commit)


class KVWorkload:
    """Open-loop deterministic KV transaction generator over a cluster.

    The load generator behind the ``workload_rate`` scenario knob.
    Submits ``rate`` transactions per second round-robin across
    replicas' mempools, and :meth:`attach` has each replica propose
    from its own, skipping what its parent's uncommitted chain already
    carries.  Committed throughput counts *unique* transactions — the
    exactly-once count a :class:`~repro.app.kvstore.LedgerExecutor`
    applies — and duplicates (a transaction proposed again by a leader
    that cannot see its first copy's block, such as a replica reborn
    with an empty store) are reported separately.
    """

    def __init__(
        self,
        cluster,
        rate: float,
        seed: int = 0,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"workload rate must be positive, got {rate!r}")
        self.cluster = cluster
        self.rate = rate
        self.rng = random.Random(f"kv-workload:{seed}")
        self.sequence = 0
        self.submitted = 0
        self._interval = 1.0 / rate
        self.mempools: dict[int, Mempool] = {}
        self._block_txids: dict = {}  # committed block id -> its txids
        self._first_commit: dict = {}  # txid -> (committed, submitted)
        for replica in cluster.replicas:
            self.mempools[replica.replica_id] = Mempool.for_replica(
                replica.config
            )
            self.attach(replica)

    def attach(self, replica) -> None:
        """:func:`attach` ``replica`` to its mempool, recording here
        each block it commits."""
        attach(replica, self.mempools[replica.replica_id], self.record_commit)

    def start(self) -> None:
        simulator = self.cluster.simulator
        simulator.schedule_at(simulator.now, self._tick)

    def _tick(self) -> None:
        simulator = self.cluster.simulator
        command = KVCommand.sample(self.rng, self.sequence)
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

    def record_commit(self, block, now: float, removed: int) -> None:
        """Commit sink of every replica instance: notes a block's txids
        the first time any replica commits it."""
        del removed
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
        wasted block space.
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
