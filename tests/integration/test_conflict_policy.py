"""Section 5 conflicting-transaction deferral, end to end."""

from repro.core.resilience import max_strength
from repro.runtime.conflict_policy import ConflictAwareMempool
from repro.types.transaction import Transaction
from tests.conftest import small_experiment


def run_with_policy(transactions, duration=8.0):
    """Build a cluster whose replica-0 leader drains a policy mempool.

    All replicas share the submitted transactions (every leader should
    be able to propose them, as the paper assumes client broadcast).
    """
    cluster = small_experiment(duration=duration).build().build()
    mempools = []
    for replica in cluster.replicas:
        mempool = ConflictAwareMempool().bind(replica)
        for transaction, key, strength in transactions:
            mempool.submit(
                transaction, conflict_key=key, required_strength=strength
            )
        mempools.append(mempool)
    cluster.run(duration)
    return cluster, mempools


def find_commit(cluster, transaction):
    """(commit time, block id) of the first commit carrying the txn."""
    target = transaction.txid()
    best = None
    for replica in cluster.replicas:
        for event in replica.commit_tracker.commit_order:
            block = replica.store.maybe_get(event.block_id)
            if block is None:
                continue
            if any(txn.txid() == target for txn in block.payload.transactions):
                if best is None or event.committed_at < best[0]:
                    best = (event.committed_at, event.block_id)
    return best


class TestConflictDeferral:
    def test_conflicting_txn_held_until_strong_commit(self):
        f = 2
        high_value = Transaction(client_id=1, sequence=0, payload=b"high")
        follower = Transaction(client_id=1, sequence=1, payload=b"low")
        cluster, _ = run_with_policy(
            [
                (high_value, "account-1", max_strength(f)),
                (follower, "account-1", 0),
            ]
        )
        first = find_commit(cluster, high_value)
        second = find_commit(cluster, follower)
        assert first is not None and second is not None
        first_time, first_block = first
        second_time, _ = second
        # The follower only commits after the high-value block is
        # 2f-strong at the proposing side.
        assert second_time > first_time
        replica = cluster.replicas[0]
        timeline = replica.commit_tracker.timeline_of(first_block)
        strong_at = timeline.first_reached(max_strength(f))
        assert strong_at is not None
        assert second_time >= strong_at

    def test_unrelated_transactions_not_deferred(self):
        f = 2
        high_value = Transaction(client_id=1, sequence=0, payload=b"high")
        unrelated = Transaction(client_id=2, sequence=0, payload=b"other")
        cluster, _ = run_with_policy(
            [
                (high_value, "account-1", max_strength(f)),
                (unrelated, "account-2", 0),
            ]
        )
        first = find_commit(cluster, high_value)
        other = find_commit(cluster, unrelated)
        assert first is not None and other is not None
        # Unrelated keys ride in the same first blocks.
        assert abs(other[0] - first[0]) < 0.2

    def test_deferral_counter_increments(self):
        f = 2
        high_value = Transaction(client_id=1, sequence=0, payload=b"high")
        follower = Transaction(client_id=1, sequence=1, payload=b"low")
        _, mempools = run_with_policy(
            [
                (high_value, "account-1", max_strength(f)),
                (follower, "account-1", 0),
            ]
        )
        assert sum(mempool.deferred_count for mempool in mempools) > 0

    def test_status_transitions(self):
        f = 2
        high_value = Transaction(client_id=1, sequence=0, payload=b"high")
        cluster, mempools = run_with_policy(
            [(high_value, "account-1", max_strength(f))], duration=8.0
        )
        del cluster
        # After a full run the transaction is committed and satisfied.
        assert mempools[0].status_of(high_value) == "satisfied"
        unknown = Transaction(client_id=9, sequence=9)
        assert mempools[0].status_of(unknown) == "unknown"

    def test_no_requirement_means_no_deferral(self):
        earlier = Transaction(client_id=1, sequence=0)
        later = Transaction(client_id=1, sequence=1)
        cluster, _ = run_with_policy(
            [(earlier, "account-1", 0), (later, "account-1", 0)],
            duration=4.0,
        )
        first = find_commit(cluster, earlier)
        second = find_commit(cluster, later)
        assert first is not None and second is not None
        assert abs(second[0] - first[0]) < 0.2
