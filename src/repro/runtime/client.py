"""Client workload: transactions, mempools, and a load generator.

The paper's evaluation keeps leaders saturated ("sufficiently many
transactions are generated ... so that any leader always has enough
transactions").  Large benchmarks therefore use synthetic
:class:`~repro.types.transaction.TxBatch` payloads; the classes here
provide *real* transaction flow for the examples and the end-to-end
tests: clients submit :class:`~repro.types.transaction.Transaction`
objects to replica mempools, leaders drain them into block payloads,
and commit events acknowledge them.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.crypto.hashing import HashDigest
from repro.types.transaction import Payload, Transaction


class Mempool:
    """FIFO pool of pending client transactions for one replica.

    Entries leave the pool only on commit (:meth:`remove_committed`),
    never on proposal: a leader whose round fails must not lose them.
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
      payload copies the unacknowledged front of the queue.  On marks
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


class CommitFeedback:
    """Drains committed transactions out of replica mempools.

    Polls each replica's commit log on a simulated-time interval and
    calls :meth:`Mempool.remove_committed` so leaders stop re-proposing
    transactions that already made it into the chain.
    """

    def __init__(self, cluster, mempools: dict, interval: float = 0.05):
        self.cluster = cluster
        self.mempools = mempools
        self.interval = interval
        self._cursors = {replica.replica_id: 0 for replica in cluster.replicas}

    def start(self) -> None:
        self.cluster.simulator.schedule_at(self.interval, self._tick)

    def _tick(self) -> None:
        for replica in self.cluster.replicas:
            if replica.crashed:
                continue
            mempool = self.mempools.get(replica.replica_id)
            if mempool is None:
                continue
            commit_order = replica.commit_tracker.commit_order
            cursor = self._cursors[replica.replica_id]
            while cursor < len(commit_order):
                event = commit_order[cursor]
                cursor += 1
                block = replica.store.maybe_get(event.block_id)
                if block is not None and block.payload.transactions:
                    mempool.remove_committed(block.payload.transactions)
            self._cursors[replica.replica_id] = cursor
        self.cluster.simulator.schedule_in(self.interval, self._tick)


class ClientWorkload:
    """Open-loop transaction generator over a cluster.

    Submits ``rate`` transactions per second round-robin across
    replicas' mempools and rewires each replica's ``payload_source`` to
    drain its mempool.  Commit acknowledgement (end-to-end transaction
    latency) is measured against the *first* honest replica to commit
    the transaction's block.
    """

    def __init__(self, cluster, rate: float = 2000.0, payload_bytes: int = 64):
        self.cluster = cluster
        self.rate = rate
        self.payload_bytes = payload_bytes
        self.mempools: dict[int, Mempool] = {}
        self.sequence = 0
        self._interval = 1.0 / rate if rate > 0 else 0.0
        for replica in cluster.replicas:
            mempool = Mempool()
            self.mempools[replica.replica_id] = mempool
            replica.payload_source = mempool.payload_source

    def start(self) -> None:
        if self._interval > 0:
            self.cluster.simulator.schedule_at(0.0, self._tick)

    def _tick(self) -> None:
        simulator = self.cluster.simulator
        transaction = Transaction(
            client_id=0,
            sequence=self.sequence,
            payload=b"x" * self.payload_bytes,
            submitted_at=simulator.now,
        )
        self.sequence += 1
        target = self.sequence % len(self.cluster.replicas)
        replica = self.cluster.replicas[target]
        if not replica.crashed:
            self.mempools[target].submit(transaction)
        simulator.schedule_in(self._interval, self._tick)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def end_to_end_latencies(self) -> list:
        """Submit-to-first-commit latency for every acknowledged txn."""
        first_commit: dict = {}
        for replica in self.cluster.honest_replicas():
            for event in replica.commit_tracker.commit_order:
                block = replica.store.maybe_get(event.block_id)
                if block is None:
                    continue
                for transaction in block.payload.transactions:
                    txid = transaction.txid()
                    seen = first_commit.get(txid)
                    if seen is None or event.committed_at < seen[0]:
                        first_commit[txid] = (
                            event.committed_at,
                            transaction.submitted_at,
                        )
        return [commit - submit for commit, submit in first_commit.values()]
