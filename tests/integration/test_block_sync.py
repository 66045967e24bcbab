"""End-to-end block-sync / catch-up behaviour.

The scenarios here are the subsystem's reason to exist: replicas that
the pre-sync protocols left permanently starved (withheld proposals,
dead QC aggregators, partitions) now recover and commit, while
``sync_enabled=False`` reproduces the original starvation exactly.
"""

import json

from repro.experiments.campaign import Job
from repro.experiments.runner import run_job
from repro.experiments.spec import FaultMix, PartitionWindow, ScenarioSpec


def run_spec(spec):
    cluster = spec.build().run()
    return cluster


def commit_counts(cluster):
    return {
        replica.replica_id: len(replica.commit_tracker.commit_order)
        for replica in cluster.replicas
    }


def withhold_spec(**overrides):
    """A quorum-reach withholding leader: skipped replicas starve
    without sync (the fuzzer's withhold-outcast find)."""
    params = dict(
        name="sync-withhold",
        protocol="sft-diembft",
        n=4,
        topology="uniform",
        uniform_delay=0.012,
        round_timeout=0.3,
        duration=7.0,
        seeds=(53,),
        block_batch_count=2,
        block_batch_bytes=100,
        faults=FaultMix(withhold=1, withhold_reach=0.67),
    )
    params.update(overrides)
    return ScenarioSpec(**params)


class TestWithholdCatchUp:
    def test_skipped_replica_starves_without_sync(self):
        cluster = run_spec(withhold_spec(sync_enabled=False))
        counts = commit_counts(cluster)
        assert counts[2] == 0, counts
        assert counts[0] > 0 and counts[1] > 0

    def test_skipped_replica_catches_up_with_sync(self):
        cluster = run_spec(withhold_spec(sync_enabled=True))
        counts = commit_counts(cluster)
        assert all(count > 0 for count in counts.values()), counts
        # The starved replica recovered via sync, within a round or
        # two of everyone else.
        assert counts[2] >= counts[0] - 4
        stats = cluster.replicas[2].sync.stats()
        assert stats["blocks_synced"] > 0
        assert stats["invalid_responses"] == 0


class TestRotationStarvationRecovery:
    def test_dead_aggregator_qc_recovered_from_timeout_votes(self):
        # n=4 + one crash: votes for every fourth round go to the
        # crashed collector.  Timeout-attached votes let the remaining
        # replicas re-aggregate those QCs and complete 3-chains.
        spec = ScenarioSpec(
            name="sync-rotation",
            protocol="sft-diembft",
            n=4,
            topology="uniform",
            uniform_delay=0.01,
            round_timeout=0.3,
            duration=8.0,
            seeds=(11,),
            block_batch_count=2,
            block_batch_bytes=100,
            faults=FaultMix(crash=1, crash_at=0.5),
        )
        starved = run_spec(spec.with_overrides(sync_enabled=False))
        recovered = run_spec(spec.with_overrides(sync_enabled=True))

        def commits_after(cluster, cutoff):
            return {
                replica.replica_id: sum(
                    1
                    for event in replica.commit_tracker.commit_order
                    if event.committed_at > cutoff
                )
                for replica in cluster.replicas
                if not replica.crashed
            }

        # Without sync: nothing commits after the crash settles.
        assert all(
            count == 0 for count in commits_after(starved, 2.0).values()
        ), commits_after(starved, 2.0)
        # With sync: timeout-vote recovery keeps commits flowing on
        # every surviving replica.
        late = commits_after(recovered, 2.0)
        assert all(count > 0 for count in late.values()), late


class TestSyncWithholdingPeers:
    def test_response_withholding_peer_forces_rotation(self):
        # n=7: the withholding leader (id 6) reaches a quorum but skips
        # ids 4 and 5; id 5 additionally never answers sync requests,
        # so id 4's fetches must rotate past it.
        spec = withhold_spec(
            name="sync-mute-peer",
            n=7,
            duration=8.0,
            faults=FaultMix(withhold=1, withhold_reach=0.67, sync_withhold=1),
        )
        cluster = run_spec(spec)
        counts = commit_counts(cluster)
        byzantine = set(cluster.byzantine_ids)
        assert {5, 6} == byzantine
        for replica_id, count in counts.items():
            if replica_id not in byzantine:
                assert count > 0, counts
        rotations = sum(
            replica.sync.stats()["peer_rotations"]
            for replica in cluster.replicas
        )
        assert rotations > 0

    def test_sync_withholder_alone_is_harmless(self):
        spec = withhold_spec(
            name="sync-mute-only",
            n=4,
            faults=FaultMix(sync_withhold=1),
        )
        cluster = run_spec(spec)
        counts = commit_counts(cluster)
        assert all(count > 0 for count in counts.values()), counts


class TestSyncUnderPartition:
    def test_catch_up_resumes_after_heal(self):
        # The starved replica is also partitioned away mid-run: its
        # fetches stall (requests held at the partition boundary) and
        # must succeed after the heal.
        spec = withhold_spec(
            name="sync-partition",
            duration=10.0,
            partitions=(
                PartitionWindow(start=1.0, end=4.0, groups=((2,), (0, 1, 3))),
            ),
        )
        cluster = run_spec(spec)
        counts = commit_counts(cluster)
        assert all(count > 0 for count in counts.values()), counts
        events = cluster.replicas[2].commit_tracker.commit_order
        assert any(event.committed_at > 4.0 for event in events)


class TestSyncOffDeterminism:
    def test_sync_off_metrics_are_byte_identical(self):
        spec = withhold_spec(sync_enabled=False)
        first = run_job(Job(job_id="d", spec=spec, seed=spec.seeds[0]))
        second = run_job(Job(job_id="d", spec=spec, seed=spec.seeds[0]))
        assert json.dumps(first["metrics"], sort_keys=True) == json.dumps(
            second["metrics"], sort_keys=True
        )

    def test_sync_on_metrics_are_deterministic_too(self):
        spec = withhold_spec(sync_enabled=True)
        first = run_job(Job(job_id="d", spec=spec, seed=spec.seeds[0]))
        second = run_job(Job(job_id="d", spec=spec, seed=spec.seeds[0]))
        assert json.dumps(first["metrics"], sort_keys=True) == json.dumps(
            second["metrics"], sort_keys=True
        )
