"""The commit stream: every consumer of committed blocks subscribes at
commit, so checkpoint truncation hides nothing from any of them."""

from pathlib import Path

import pytest

from repro.experiments.runner import collect_job_metrics
from repro.experiments.spec import FaultMix, ScenarioSpec, load_scenario
from repro.runtime.metrics import throughput_txps
from repro.types.transaction import Transaction

CORPUS = Path(__file__).resolve().parents[2] / "scenarios" / "fuzz_corpus"


def _checkpointing_spec(**overrides):
    """Real transactions, checkpoints every 4 heights, no partition (so
    no snapshot install): blocks are pruned soon after they commit.
    Pipelined leaders do not re-propose what they shipped, so a commit
    the mempool never hears of leaves its transactions pending."""
    params = dict(
        name="commit-stream",
        protocol="sft-diembft",
        n=4,
        topology="uniform",
        uniform_delay=0.01,
        jitter=0.002,
        duration=6.0,
        round_timeout=0.5,
        seeds=(3,),
        block_batch_count=10,
        block_batch_bytes=1000,
        workload_rate=200.0,
        checkpoint_interval=4,
        pipelined_proposals=True,
        cutoff_fraction=1.0,
    )
    params.update(overrides)
    return ScenarioSpec(**params)


def _record_commits(replica) -> list:
    """Subscribe a recorder of ``(block, now)`` to ``replica``'s stream."""
    seen = []
    replica.commit_tracker.add_commit_listener(
        lambda block, now: seen.append(block)
    )
    return seen


@pytest.fixture(scope="module")
def checkpointing_run():
    spec = _checkpointing_spec()
    cluster = spec.build().build()
    streams = {r.replica_id: _record_commits(r) for r in cluster.replicas}
    cluster.run()
    return spec, cluster, streams


class TestCheckpointingRun:
    def test_truncation_pruned_committed_blocks(self, checkpointing_run):
        _spec, cluster, _streams = checkpointing_run
        assert all(
            replica.checkpoint.stats()["blocks_truncated"] > 0
            for replica in cluster.replicas
        )

    def test_no_committed_transaction_stays_pending(self, checkpointing_run):
        _spec, cluster, streams = checkpointing_run
        for replica in cluster.replicas:
            committed = {
                transaction.txid()
                for block in streams[replica.replica_id]
                for transaction in block.payload.transactions
            }
            assert committed
            pending = cluster.workload.mempools[replica.replica_id]._pending
            assert not committed & set(pending), replica.replica_id

    def test_throughput_counts_what_the_stream_saw(self, checkpointing_run):
        _spec, cluster, streams = checkpointing_run
        observers = cluster.observer_replicas()
        seen = sum(
            block.payload.tx_count()
            for replica in observers
            for block in streams[replica.replica_id]
        )
        assert seen > 0
        horizon = cluster.simulator.now
        assert throughput_txps(cluster) * horizon * len(observers) == (
            pytest.approx(seen)
        )

    def test_latency_samples_cover_every_committed_block(
        self, checkpointing_run
    ):
        spec, cluster, _streams = checkpointing_run
        metrics = collect_job_metrics(cluster, spec)
        committed = sum(
            1
            for replica in cluster.observer_replicas()
            for event in replica.commit_tracker.commit_order
            if event.height > 0
        )
        assert metrics["regular_latency_samples"] == committed
        for point in metrics["strong_latency_series"]:
            assert point["eligible"] == committed


class TestListeners:
    def test_once_per_block_oldest_first_and_not_for_a_snapshot(self):
        spec = load_scenario(CORPUS / "snapshot_join_lag.json")
        cluster = spec.build().build()
        streams = {r.replica_id: _record_commits(r) for r in cluster.replicas}
        cluster.run()
        joiners = 0
        for replica in cluster.replicas:
            tracker = replica.commit_tracker
            seen = [block.height for block in streams[replica.replica_id]]
            assert seen == sorted(set(seen)), replica.replica_id
            assert [block.id() for block in streams[replica.replica_id]] == [
                event.block_id
                for event in tracker.commit_order
                if event.height not in tracker.snapshot_heights
            ]
            for height in tracker.snapshot_heights:
                joiners += 1
                below = max(h for h in seen if h < height)
                skipped = set(range(below + 1, height + 1))
                assert len(skipped) > 1
                assert not skipped & set(seen)
        assert joiners >= 1


class TestRestart:
    def test_reborn_replica_proposes_from_its_mempool(self):
        spec = _checkpointing_spec(
            name="commit-stream-restart",
            n=7,
            f=2,
            duration=6.0,
            workload_rate=40.0,
            checkpoint_interval=0,
            faults=FaultMix(recover=2, recover_at=2.0, downtime=1.0),
        )
        cluster = spec.build().run()
        reborn = [rid for rid, _crash, _restart in cluster.recovery_schedule]
        assert reborn and cluster.restarts == len(reborn)
        for replica_id in reborn:
            mempool = cluster.workload.mempools[replica_id]
            replica = cluster.replicas[replica_id]
            pending = Transaction(client_id=99, sequence=replica_id)
            mempool.submit(pending)
            payload = replica.payload_source(
                cluster.simulator.now, replica.store.highest_certified_id
            )
            assert pending in payload.transactions
