"""Deterministic KV-store workload for throughput experiments.

:class:`KVWorkload` is the load generator behind the ``workload_rate``
scenario knob: an open-loop client submitting
:class:`~repro.app.kvstore.KVCommand` transactions round-robin into
per-replica :class:`~repro.runtime.client.Mempool` queues, with leaders
draining batches (``batch_size`` / ``max_batch_bytes``) into block
payloads and commit feedback acknowledging them.

Everything is deterministic: the command stream comes from its own
seeded RNG (keyed off the experiment seed, independent of the network
jitter stream), submissions tick on simulated time, and measurements
are pure functions of the committed chain — so campaign reports stay
byte-identical across runs and worker counts with the workload on.

Unlike :class:`~repro.runtime.client.ClientWorkload` (the examples'
synthetic-payload generator), this workload carries real, replayable
state-machine commands so committed throughput can be audited against
:class:`~repro.app.kvstore.LedgerExecutor` semantics: txs/sec counts
*unique* committed transactions, and re-proposed duplicates are
reported separately.
"""

from __future__ import annotations

import random

from repro.app.kvstore import KVCommand
from repro.runtime.client import CommitFeedback, Mempool

#: Bounded key space keeps set/del/transfer commands colliding enough
#: to exercise external validity (failed transfers) deterministically.
_KEY_SPACE = 256


class KVWorkload:
    """Open-loop deterministic KV transaction generator over a cluster.

    Submits ``rate`` transactions per second round-robin across
    replicas' mempools and rewires each replica's ``payload_source`` to
    drain its own mempool (capped by that replica's
    ``batch_size``/``max_batch_bytes`` config, honouring its
    ``pipelined_proposals`` drain discipline).
    """

    def __init__(
        self,
        cluster,
        rate: float,
        payload_bytes: int = 64,
        seed: int = 0,
        feedback_interval: float = 0.05,
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
        for replica in cluster.replicas:
            config = replica.config
            per_round = getattr(config, "round_duration", None)
            if not per_round:
                per_round = config.round_timeout
            mempool = Mempool(
                max_block_transactions=config.batch_size,
                max_block_bytes=config.max_batch_bytes,
                pipelined=config.pipelined_proposals,
                # In-flight entries outlive a full 3-chain commit plus
                # feedback lag before re-qualifying for proposals.
                inflight_timeout=8.0 * per_round,
            )
            self.mempools[replica.replica_id] = mempool
            replica.payload_source = mempool.payload_source
        self.feedback = CommitFeedback(
            cluster, self.mempools, interval=feedback_interval
        )

    def start(self) -> None:
        simulator = self.cluster.simulator
        simulator.schedule_at(simulator.now, self._tick)
        self.feedback.start()

    # ------------------------------------------------------------------
    # command stream
    # ------------------------------------------------------------------

    def _next_command(self) -> KVCommand:
        roll = self.rng.random()
        key = f"k{self.rng.randrange(_KEY_SPACE)}"
        if roll < 0.85:
            pad = "x" * max(0, self.payload_bytes - len(key) - 12)
            return KVCommand(op="set", key=key, value=f"{self.sequence}:{pad}")
        if roll < 0.95:
            other = f"k{self.rng.randrange(_KEY_SPACE)}"
            return KVCommand(op="transfer", key=key, key2=other, amount=1)
        return KVCommand(op="del", key=key)

    def _tick(self) -> None:
        simulator = self.cluster.simulator
        command = self._next_command()
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
    # measurement (pure functions of the committed chain)
    # ------------------------------------------------------------------

    def committed_tx_stats(self, replica) -> tuple[int, int]:
        """``(unique, duplicates)`` committed through ``replica``'s log.

        ``unique`` counts distinct transaction ids in committed blocks
        (the exactly-once count a :class:`LedgerExecutor` applies);
        ``duplicates`` counts the re-proposed extra occurrences that
        wasted block space — the quantity pipelining suppresses.
        """
        seen: set = set()
        duplicates = 0
        for event in replica.commit_tracker.commit_order:
            block = replica.store.maybe_get(event.block_id)
            if block is None:
                continue
            for transaction in block.payload.transactions:
                txid = transaction.txid()
                if txid in seen:
                    duplicates += 1
                else:
                    seen.add(txid)
        return len(seen), duplicates

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
