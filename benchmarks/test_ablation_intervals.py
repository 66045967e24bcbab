"""E7 — ablation: marker votes vs generalized interval votes (§3.4).

The single marker is the paper's minimal-information strong-vote; it
buys Theorem 2 liveness (benign faults only).  Under *Byzantine*
leaders that equivocate, honest replicas that crossed a fork carry
high markers forever after, so their later votes stop endorsing deep
prefixes — strong commits for blocks near the fork stall.  The
generalized interval votes recover those endorsements (Theorem 3) at
the cost of a few extra integers per vote.

This bench injects an equivocating leader and compares, per scheme,
the fraction of settled blocks that reach high strength and the wire
size of votes.
"""

from repro.adversary import make_equivocating_leader
from repro.analysis.invariants import check_prefix_consistency
from repro.experiments.spec import ScenarioSpec
from repro.protocols.sft_diembft import SFTDiemBFTReplica

N, F = 7, 2
BYZANTINE_ID = 3


def run_mode(generalized: bool, window: int | None = None):
    spec = ScenarioSpec(
        protocol="sft-diembft",
        n=N,
        topology="uniform",
        uniform_delay=0.010,
        jitter=0.002,
        duration=20.0,
        round_timeout=0.4,
        seeds=(41,),
        generalized_intervals=generalized,
        interval_window=window,
        block_batch_count=10,
        block_batch_bytes=1_000,
    )
    return spec.build(
        replica_overrides={
            BYZANTINE_ID: make_equivocating_leader(SFTDiemBFTReplica)
        }
    ).run()


def reach_stats(cluster, level: int):
    replica = cluster.replicas[0]
    horizon = cluster.simulator.now * 0.5
    reached = 0
    eligible = 0
    for event in replica.commit_tracker.commit_order:
        timeline = replica.commit_tracker.timeline_of(event.block_id)
        if timeline is None or timeline.block.is_genesis():
            continue
        if timeline.block.created_at > horizon:
            continue
        eligible += 1
        if timeline.current >= level:
            reached += 1
    return reached, eligible


def vote_extra_ints(cluster) -> float:
    """Mean count of extra integers carried per strong-vote."""
    replica = cluster.replicas[0]
    qc = replica.qc_high
    total = 0
    for vote in qc.votes:
        if vote.intervals:
            total += 2 * len(vote.intervals)
        else:
            total += 1  # the marker
    return total / max(1, len(qc.votes))


def test_ablation_marker_vs_intervals():
    results = {}

    modes = (
        ("marker", False, None),
        ("intervals[1,r]", True, None),
        (f"intervals[r-{N},r]", True, N),
    )
    for label, generalized, window in modes:
        cluster = run_mode(generalized, window)
        honest = [
            replica
            for index, replica in enumerate(cluster.replicas)
            if index != BYZANTINE_ID
        ]
        assert not check_prefix_consistency(honest)
        high = 2 * F - 1  # t = 1 Byzantine → Theorem 3 target
        reached, eligible = reach_stats(cluster, high)
        results[label] = (reached, eligible, vote_extra_ints(cluster))

    print()
    print(f"Ablation §3.4 — equivocating leader (replica {BYZANTINE_ID}), "
          f"n={N}, f={F}, target = (2f-1)-strong")
    print(f"{'vote scheme':<18}{'reached':>9}{'eligible':>10}"
          f"{'fraction':>10}{'ints/vote':>11}")
    for label, (reached, eligible, ints) in results.items():
        fraction = reached / max(1, eligible)
        print(f"{label:<18}{reached:>9}{eligible:>10}"
              f"{fraction:>10.2f}{ints:>11.1f}")

    marker_reached, marker_eligible, marker_ints = results["marker"]
    full_reached, full_eligible, full_ints = results["intervals[1,r]"]
    win_label = f"intervals[r-{N},r]"
    win_reached, win_eligible, win_ints = results[win_label]
    # Interval votes reach the Theorem 3 target at least as often as
    # markers under equivocation.
    marker_fraction = marker_reached / max(1, marker_eligible)
    full_fraction = full_reached / max(1, full_eligible)
    assert full_fraction >= marker_fraction
    assert full_fraction > 0.8
    assert win_reached / max(1, win_eligible) > 0.8
    # Size trade-off (the §3.4 discussion): markers are one integer;
    # unwindowed interval sets accumulate one exclusion per historical
    # fork and grow without bound; the last-n-rounds window keeps them
    # small ("at most t intervals during periods of synchrony").
    assert marker_ints == 1.0
    assert full_ints > 10.0
    assert win_ints <= 8.0
