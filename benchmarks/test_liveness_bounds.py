"""E6 — liveness bounds: Theorems 2 and 3 as measurements.

Theorem 2: after GST with c ≤ f benign (crash) faults, a block is
(2f − c)-strong committed within n + 2 rounds.  Theorem 3: with
generalized interval votes, the same holds for t Byzantine faults at
(2f − t).  The bench sweeps the fault count and reports, per c, the
best achieved strength and the mean/max time to reach it.
"""

from repro.adversary import make_silent
from repro.analysis.invariants import check_prefix_consistency
from repro.experiments.spec import FaultMix, ScenarioSpec
from repro.protocols.sft_diembft import SFTDiemBFTReplica

N, F = 10, 3


def run_with_faults(fault_count: int, byzantine: bool, generalized: bool):
    spec = ScenarioSpec(
        protocol="sft-diembft",
        n=N,
        f=F,
        topology="uniform",
        uniform_delay=0.010,
        jitter=0.002,
        duration=24.0,
        round_timeout=0.5,
        seeds=(37,),
        generalized_intervals=generalized,
        block_batch_count=10,
        block_batch_bytes=1_000,
        faults=FaultMix(crash=0 if byzantine else fault_count),
    )
    overrides = {}
    if byzantine:
        for index in range(fault_count):
            overrides[N - 1 - index] = make_silent(SFTDiemBFTReplica)
    return spec.build(replica_overrides=overrides).run()


def strength_stats(cluster, target: int):
    replica = next(
        replica for replica in cluster.replicas if not replica.crashed
    )
    horizon = cluster.simulator.now * 0.5
    latencies = []
    best = -1
    for _, timeline in replica.commit_tracker.timelines():
        if timeline.block.is_genesis() or timeline.block.created_at > horizon:
            continue
        best = max(best, timeline.current)
        latency = timeline.latency_to(target)
        if latency is not None:
            latencies.append(latency)
    mean = sum(latencies) / len(latencies) if latencies else None
    worst = max(latencies) if latencies else None
    return best, mean, worst, len(latencies)


def test_liveness_bounds_theorem_2_and_3():
    rows = []

    for fault_count in range(0, F + 1):
        cluster = run_with_faults(fault_count, byzantine=False,
                                  generalized=False)
        assert not check_prefix_consistency(
            [replica for replica in cluster.replicas if not replica.crashed]
        )
        target = 2 * F - fault_count
        rows.append(
            ("crash", fault_count, target)
            + strength_stats(cluster, target)
        )
    for fault_count in (1, 2):
        cluster = run_with_faults(fault_count, byzantine=True,
                                  generalized=True)
        honest = [
            replica
            for replica in cluster.replicas
            if replica.replica_id < N - fault_count
        ]
        assert not check_prefix_consistency(honest)
        target = 2 * F - fault_count
        rows.append(
            ("byzantine+intervals", fault_count, target)
            + strength_stats(cluster, target)
        )

    print()
    print(f"Liveness bounds (n={N}, f={F}) — Theorems 2 and 3")
    print(f"{'faults':<22}{'t/c':>4}{'target':>8}{'best':>6}"
          f"{'mean(s)':>9}{'max(s)':>8}{'blocks':>8}")
    for kind, count, target, best, mean, worst, samples in rows:
        mean_text = f"{mean:.3f}" if mean is not None else "—"
        worst_text = f"{worst:.3f}" if worst is not None else "—"
        print(f"{kind:<22}{count:>4}{target:>8}{best:>6}"
              f"{mean_text:>9}{worst_text:>8}{samples:>8}")

    for kind, count, target, best, mean, worst, samples in rows:
        # The theorem's strength target is achieved…
        assert best >= target, (kind, count)
        # …for every settled block.
        assert samples > 10, (kind, count)
