"""End-to-end checkpointing: truncation bounds memory, snapshots join.

The scenarios here are the subprotocol's reason to exist: a replica
partitioned away long enough that block-by-block replay would be the
only pre-checkpoint way back instead installs a peer's certified state
image and rejoins within an interval of the tip, while every replica's
live block count stays O(checkpoint_interval) no matter how long the
run.  ``checkpoint_interval=0`` replays the pre-checkpoint runs
byte-for-byte (the committed-baseline differentials live in
``test_throughput.py::TestFlagsOffBaselines``, whose baselines are
recorded with the knob off).
"""

import json

from repro.analysis.invariants import check_prefix_consistency
from repro.experiments.campaign import Job
from repro.experiments.runner import run_job
from repro.experiments.spec import PartitionWindow, ScenarioSpec


def join_spec(**overrides):
    """One replica isolated for most of the run, checkpointing on."""
    params = dict(
        name="checkpoint-join",
        protocol="sft-diembft",
        n=4,
        topology="uniform",
        uniform_delay=0.01,
        jitter=0.002,
        duration=25.0,
        round_timeout=0.5,
        seeds=(3,),
        block_batch_count=2,
        block_batch_bytes=100,
        workload_rate=40.0,
        checkpoint_interval=4,
        partitions=(
            PartitionWindow(start=3.0, end=14.0, groups=((0, 1, 2), (3,))),
        ),
    )
    params.update(overrides)
    return ScenarioSpec(**params)


def run_spec(spec):
    cluster = spec.build().run()
    return cluster


class TestSnapshotJoin:
    def test_lagged_replica_installs_snapshot(self):
        cluster = run_spec(join_spec())
        joiner = cluster.replicas[3]
        stats = joiner.checkpoint.stats()
        assert stats["snapshots_installed"] >= 1
        assert stats["invalid_snapshots"] == 0
        served = sum(
            replica.checkpoint.stats()["snapshots_served"]
            for replica in cluster.replicas
        )
        assert served >= 1

    def test_joiner_commit_log_jumps_to_checkpoint(self):
        cluster = run_spec(join_spec())
        joiner = cluster.replicas[3]
        heights = joiner.commit_tracker.snapshot_heights
        assert heights, "snapshot install must record its jump height"
        for height in heights:
            assert height % joiner.checkpoint.interval == 0

    def test_joiner_state_converges_with_peers(self):
        cluster = run_spec(join_spec())
        # The joiner's snapshot jump removes the partition-era gap from
        # its commit log, so commit *counts* are not comparable across
        # replicas — committed heights are.  Each executor ran on its
        # replica's commit stream; require identical kvstore states
        # wherever two replicas ended on the same committed tip height.
        tips = {}
        for replica in cluster.replicas:
            tip =replica.commit_tracker.commit_order[-1].height
            tips.setdefault(tip, set()).add(
                replica.checkpoint.executor.state.items()
            )
        for height, states in tips.items():
            assert len(states) == 1, f"divergent state at height {height}"
        joiner_tip = cluster.replicas[3].commit_tracker.commit_order[-1].height
        peer_tips = [
            cluster.replicas[rid].commit_tracker.commit_order[-1].height
            for rid in (0, 1, 2)
        ]
        # The joiner caught up to within a handful of commits of peers.
        assert joiner_tip >= max(peer_tips) - 8

    def test_truncated_history_stays_prefix_consistent(self):
        cluster = run_spec(join_spec())
        violations = check_prefix_consistency(cluster.replicas)
        assert violations == []

    def test_campaign_metrics_surface_checkpoint_section(self):
        spec = join_spec()
        entry = run_job(Job(job_id="ckpt/join", spec=spec, seed=spec.seeds[0]))
        section = entry["metrics"]["checkpoint"]
        assert section["enabled"] is True
        assert section["snapshots_installed"] >= 1
        assert section["stable_height"] > 0
        assert section["peak_live_blocks"] > 0
        assert entry["metrics"]["invariants"]["ok"]


class TestMemoryBound:
    def test_truncation_bounds_live_blocks(self):
        enabled = run_spec(
            join_spec(name="ckpt-on", partitions=(), duration=20.0)
        )
        disabled = run_spec(
            join_spec(
                name="ckpt-off",
                partitions=(),
                duration=20.0,
                checkpoint_interval=0,
            )
        )
        replica = enabled.replicas[0]
        commits = len(replica.commit_tracker.commit_order)
        assert commits > 100
        # With checkpointing every 4 commits the store holds a few
        # blocks; without it, the full history accumulates.
        assert replica.store.peak_live_blocks < 20
        assert disabled.replicas[0].store.peak_live_blocks > commits / 2

    def test_truncation_never_drops_commits(self):
        # Truncation is bookkeeping, not protocol: despite the store
        # pruning below every stable checkpoint, the commit log stays a
        # gapless height sequence, and throughput matches an
        # untruncated run to within noise.  (The chains themselves are
        # not byte-comparable across the knob — checkpoint traffic
        # draws from the network RNG, shifting batch composition.)
        enabled = run_spec(
            join_spec(name="ckpt-on", partitions=(), duration=12.0)
        )
        disabled = run_spec(
            join_spec(
                name="ckpt-off",
                partitions=(),
                duration=12.0,
                checkpoint_interval=0,
            )
        )
        for on_replica, off_replica in zip(
            enabled.replicas, disabled.replicas
        ):
            heights = [
                event.height
                for event in on_replica.commit_tracker.commit_order
            ]
            assert heights == list(range(len(heights)))
            on_count = len(heights)
            off_count = len(off_replica.commit_tracker.commit_order)
            assert on_count > 100
            assert abs(on_count - off_count) <= 0.1 * max(on_count, off_count)


class TestKnobOffDeterminism:
    def test_interval_zero_metrics_are_byte_identical(self):
        spec = join_spec(name="ckpt-off-det", checkpoint_interval=0)
        first = run_job(Job(job_id="det/1", spec=spec, seed=spec.seeds[0]))
        second = run_job(Job(job_id="det/2", spec=spec, seed=spec.seeds[0]))
        assert json.dumps(first["metrics"], sort_keys=True) == json.dumps(
            second["metrics"], sort_keys=True
        )
        assert first["metrics"]["checkpoint"]["enabled"] is False

    def test_interval_on_metrics_are_deterministic_too(self):
        spec = join_spec(name="ckpt-on-det")
        first = run_job(Job(job_id="det/3", spec=spec, seed=spec.seeds[0]))
        second = run_job(Job(job_id="det/4", spec=spec, seed=spec.seeds[0]))
        assert json.dumps(first["metrics"], sort_keys=True) == json.dumps(
            second["metrics"], sort_keys=True
        )
