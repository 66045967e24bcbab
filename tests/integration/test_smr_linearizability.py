"""State machine replication end to end: every replica computes the
same state — the linearizable-log contract of Section 2."""

import random

from repro.app import KVCommand, KVStateMachine, LedgerExecutor
from repro.runtime.client import Mempool
from tests.conftest import small_experiment


def run_kv_workload(duration=8.0, command_count=300, seed=5, crash=None,
                    protocol="sft-diembft"):
    """Drive a cluster with a randomized KV workload via mempools.

    Returns the cluster and one :class:`LedgerExecutor` per replica,
    subscribed to its commit stream before the run.
    """
    config = small_experiment(protocol=protocol, duration=duration, seed=seed)
    cluster = config.build(crash_schedule=crash).build()
    mempools = {}
    executors = {}
    for replica in cluster.replicas:
        mempool = Mempool(max_block_transactions=20)
        replica.payload_source = mempool.payload_source
        mempools[replica.replica_id] = mempool
        executor = LedgerExecutor()
        tracker = replica.commit_tracker
        tracker.add_commit_listener(
            lambda block, now, mempool=mempool: mempool.remove_committed(
                block.payload.transactions
            )
        )
        tracker.add_commit_listener(executor.apply_block)
        executors[replica.replica_id] = executor

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
    return cluster, executors


def reexecute(replica, length):
    """The reference: replay the first ``length`` commits from the store."""
    machine = KVStateMachine()
    seen = set()
    for event in replica.commit_tracker.commit_order[:length]:
        block = replica.store.maybe_get(event.block_id)
        for transaction in block.payload.transactions:
            txid = transaction.txid()
            if txid in seen:
                continue
            seen.add(txid)
            machine.apply_transaction(transaction)
    return machine


class TestLinearizability:
    def test_all_replicas_compute_identical_state(self):
        cluster, executors = run_kv_workload()
        live = [r for r in cluster.replicas if not r.crashed]
        for replica in live:
            assert executors[replica.replica_id].blocks_executed > 10
        # Replicas may be at different log lengths; compare the state
        # over the shared committed prefix by re-executing it.
        shortest = min(len(r.commit_tracker.commit_order) for r in live)
        states = {reexecute(r, shortest).items() for r in live}
        assert len(states) == 1

    def test_executor_matches_reexecution(self):
        cluster, executors = run_kv_workload()
        for replica in cluster.replicas:
            length = len(replica.commit_tracker.commit_order)
            assert executors[replica.replica_id].state.items() == (
                reexecute(replica, length).items()
            )

    def test_conservation_of_balance(self):
        _cluster, executors = run_kv_workload()
        executor = executors[0]
        total = sum(
            int(dict(executor.state.items()).get(f"acct{i}") or 0)
            for i in range(5)
        )
        assert total == 500  # transfers conserve the account sum

    def test_state_agreement_survives_crashes(self):
        cluster, _executors = run_kv_workload(
            duration=12.0, crash=((6, 2.0),), seed=9
        )
        live = [r for r in cluster.replicas if not r.crashed]
        shortest = min(len(r.commit_tracker.commit_order) for r in live)
        assert shortest > 10
        states = {reexecute(r, shortest).items() for r in live}
        assert len(states) == 1

    def test_executor_applies_each_commit_event_once(self):
        cluster, executors = run_kv_workload(duration=4.0)
        tracker = cluster.replicas[0].commit_tracker
        events = [
            event
            for event in tracker.commit_order
            if event.height not in tracker.snapshot_heights
        ]
        assert events
        assert executors[0].blocks_executed == len(events)

    def test_streamlet_reaches_same_state_shape(self):
        _cluster, executors = run_kv_workload(
            duration=6.0, protocol="sft-streamlet"
        )
        shortest = min(e.blocks_executed for e in executors.values())
        assert shortest > 5
