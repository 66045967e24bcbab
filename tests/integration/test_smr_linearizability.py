"""State machine replication end to end: every replica computes the
same state — the linearizable-log contract of Section 2."""

import random

from repro.app import KVCommand, LedgerExecutor
from repro.runtime.client import Mempool
from repro.runtime.config import build_cluster
from tests.conftest import small_experiment


def run_kv_workload(duration=8.0, command_count=300, seed=5, crash=None,
                    protocol="sft-diembft"):
    """Drive a cluster with a randomized KV workload via mempools."""
    config = small_experiment(protocol=protocol, duration=duration, seed=seed)
    cluster = build_cluster(config, crash_schedule=crash).build()
    mempools = {}
    for replica in cluster.replicas:
        mempool = Mempool(max_block_transactions=20)
        replica.payload_source = mempool.payload_source
        mempools[replica.replica_id] = mempool
    from repro.runtime.client import CommitFeedback

    CommitFeedback(cluster, mempools).start()

    rng = random.Random(seed)
    accounts = [f"acct{i}" for i in range(5)]
    sequence = 0
    for account in accounts:
        command = KVCommand(op="set", key=account, value="100")
        txn = command.to_transaction(client_id=0, sequence=sequence)
        sequence += 1
        for mempool in mempools.values():
            mempool.submit(txn)
    for _ in range(command_count):
        kind = rng.random()
        if kind < 0.5:
            command = KVCommand(
                op="transfer",
                key=rng.choice(accounts),
                key2=rng.choice(accounts),
                amount=rng.randint(1, 30),
            )
        elif kind < 0.8:
            command = KVCommand(
                op="set", key=f"k{rng.randint(0, 20)}",
                value=str(rng.randint(0, 999)),
            )
        else:
            command = KVCommand(op="del", key=f"k{rng.randint(0, 20)}")
        txn = command.to_transaction(client_id=1, sequence=sequence)
        sequence += 1
        for mempool in mempools.values():
            mempool.submit(txn)

    cluster.run(duration)
    return cluster


class TestLinearizability:
    def test_all_replicas_compute_identical_state(self):
        cluster = run_kv_workload()
        executors = [
            LedgerExecutor(replica)
            for replica in cluster.replicas
            if not replica.crashed
        ]
        for executor in executors:
            assert executor.sync() > 10
        # Replicas may be at different log lengths; compare the state
        # over the shared committed prefix by re-executing it.
        shortest = min(
            len(executor.replica.commit_tracker.commit_order)
            for executor in executors
        )
        hashes = set()
        for executor in executors:
            from repro.app import KVStateMachine

            machine = KVStateMachine()
            seen = set()
            replica = executor.replica
            for event in replica.commit_tracker.commit_order[:shortest]:
                block = replica.store.maybe_get(event.block_id)
                for transaction in block.payload.transactions:
                    txid = transaction.txid()
                    if txid in seen:
                        continue
                    seen.add(txid)
                    machine.apply_transaction(transaction)
            hashes.add(machine.state_hash())
        assert len(hashes) == 1

    def test_conservation_of_balance(self):
        cluster = run_kv_workload()
        replica = cluster.replicas[0]
        executor = LedgerExecutor(replica)
        executor.sync()
        total = sum(
            int(executor.state.get(f"acct{i}") or 0) for i in range(5)
        )
        assert total == 500  # transfers conserve the account sum

    def test_state_agreement_survives_crashes(self):
        cluster = run_kv_workload(
            duration=12.0, crash=((6, 2.0),), seed=9
        )
        executors = [
            LedgerExecutor(replica)
            for replica in cluster.replicas
            if not replica.crashed
        ]
        hashes = set()
        shortest = min(
            len(replica.commit_tracker.commit_order)
            for replica in cluster.replicas
            if not replica.crashed
        )
        assert shortest > 10
        for executor in executors:
            from repro.app import KVStateMachine

            machine = KVStateMachine()
            seen = set()
            replica = executor.replica
            for event in replica.commit_tracker.commit_order[:shortest]:
                block = replica.store.maybe_get(event.block_id)
                for transaction in block.payload.transactions:
                    txid = transaction.txid()
                    if txid in seen:
                        continue
                    seen.add(txid)
                    machine.apply_transaction(transaction)
            hashes.add(machine.state_hash())
        assert len(hashes) == 1

    def test_incremental_sync_is_idempotent(self):
        cluster = run_kv_workload(duration=4.0)
        executor = LedgerExecutor(cluster.replicas[0])
        first = executor.sync()
        assert first > 0
        assert executor.sync() == 0
        digest = executor.state_hash()
        executor.sync()
        assert executor.state_hash() == digest

    def test_streamlet_reaches_same_state_shape(self):
        cluster = run_kv_workload(duration=6.0, protocol="sft-streamlet")
        executors = [LedgerExecutor(r) for r in cluster.replicas]
        for executor in executors:
            executor.sync()
        shortest = min(e.blocks_executed for e in executors)
        assert shortest > 5
