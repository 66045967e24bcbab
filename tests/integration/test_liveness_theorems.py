"""Liveness bounds: Theorems 2 and 3 (optimistic strong commits)."""

from repro.adversary import make_silent
from repro.protocols.sft_diembft import SFTDiemBFTReplica
from repro.runtime.config import build_cluster
from tests.conftest import small_experiment


def round_duration_estimate(cluster) -> float:
    replica = cluster.replicas[0]
    return cluster.simulator.now / max(1, replica.current_round)


def settled_timelines(cluster, margin: float):
    replica = cluster.replicas[0]
    horizon = cluster.simulator.now - margin
    for _, timeline in replica.commit_tracker.timelines():
        block = timeline.block
        if block.is_genesis() or block.created_at > horizon:
            continue
        yield timeline


class TestTheorem2CrashFaults:
    def test_2f_minus_c_within_n_plus_2_rounds(self):
        # c = 1 crash; blocks must be (2f-1)-strong within ~n+2 rounds.
        # In wall time, a rotation includes two timeout-priced rounds
        # (the crashed replica as leader and as vote collector), so the
        # bound adds that gap cost on top of n+2 fast rounds; the
        # theorem's round-robin argument also assumes each replica's
        # leadership slot embeds its vote, which the adjacent-crash slot
        # cannot, hence a small randomized-inclusion slack.
        config = small_experiment(duration=16.0)
        cluster = build_cluster(config, crash_schedule=((6, 0.0),)).run()
        f = cluster.config.resolved_f()
        n = cluster.config.n
        target = 2 * f - 1
        per_round = round_duration_estimate(cluster)
        gap_cost = 2 * 2.5 * cluster.config.round_timeout
        bound = (n + 4) * per_round + gap_cost
        latencies = []
        for timeline in settled_timelines(cluster, margin=bound):
            latency = timeline.latency_to(target)
            assert latency is not None, (
                f"block at round {timeline.block.round} never reached "
                f"{target}-strong"
            )
            assert latency <= bound
            latencies.append(latency)
        assert len(latencies) > 20
        latencies.sort()
        median = latencies[len(latencies) // 2]
        assert median < (n + 4) * per_round

    def test_no_faults_2f_strong_within_n_plus_2_rounds(self):
        config = small_experiment(duration=12.0)
        cluster = build_cluster(config).run()
        f = cluster.config.resolved_f()
        n = cluster.config.n
        per_round = round_duration_estimate(cluster)
        bound = (n + 4) * per_round
        checked = 0
        for timeline in settled_timelines(cluster, margin=bound):
            latency = timeline.latency_to(2 * f)
            assert latency is not None
            assert latency <= bound
            checked += 1
        assert checked > 20


class TestTheorem3ByzantineFaults:
    def test_interval_votes_recover_2f_minus_t(self):
        # t = 1 silent Byzantine replica with generalized interval votes:
        # blocks still reach (2f - t)-strong (Theorem 3).
        config = small_experiment(duration=16.0, generalized_intervals=True)
        cluster = build_cluster(config)
        cluster.build(replica_overrides={6: make_silent(SFTDiemBFTReplica)})
        cluster.run()
        f = cluster.config.resolved_f()
        target = 2 * f - 1
        per_round = round_duration_estimate(cluster)
        bound = (cluster.config.n + 6) * per_round
        checked = 0
        for timeline in settled_timelines(cluster, margin=bound):
            latency = timeline.latency_to(target)
            assert latency is not None
            checked += 1
        assert checked > 20

    def test_marker_votes_also_suffice_without_forks(self):
        # With a merely-silent adversary no forks arise, so plain
        # markers already deliver the Theorem 2 guarantee.
        config = small_experiment(duration=16.0)
        cluster = build_cluster(config)
        cluster.build(replica_overrides={6: make_silent(SFTDiemBFTReplica)})
        cluster.run()
        f = cluster.config.resolved_f()
        reached = set()
        for timeline in settled_timelines(cluster, margin=4.0):
            reached.add(timeline.current)
        assert 2 * f - 1 in reached
