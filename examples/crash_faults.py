#!/usr/bin/env python3
"""Theorem 2 in action: crash faults cap strength at (2f - c).

Crashes c replicas at t = 0 and shows that, during the optimistic
period, committed blocks still strong commit up to exactly
(2f - c)-strong — the crashed replicas can never endorse, but every
live replica's strong-vote eventually lands in a strong-QC via the
round-robin rotation (at latest when it acts as vote collector).

Run:  python examples/crash_faults.py
"""

from repro import FaultMix, ScenarioSpec
from repro.analysis.invariants import check_prefix_consistency


def run_with_crashes(crash_count: int) -> None:
    n, duration = 10, 20.0
    spec = ScenarioSpec(
        protocol="sft-diembft",
        n=n,
        f=3,
        topology="uniform",
        uniform_delay=0.010,
        jitter=0.002,
        duration=duration,
        round_timeout=0.5,
        seeds=(5,),
        block_batch_count=10,
        block_batch_bytes=1_000,
        faults=FaultMix(crash=crash_count),  # the top ids, at t = 0
    )
    f = spec.resolved_f()
    cluster = spec.build().run()
    survivors = [replica for replica in cluster.replicas if not replica.crashed]
    assert not check_prefix_consistency(survivors)

    replica = survivors[0]
    commits = replica.commit_tracker.commit_order
    # Look at settled blocks only (created in the first half of the run).
    strengths = []
    for event in commits:
        timeline = replica.commit_tracker.timeline_of(event.block_id)
        if timeline is None or timeline.block.created_at > duration / 2:
            continue
        strengths.append(timeline.current)
    best = max(strengths) if strengths else -1
    expected = 2 * f - crash_count
    print(
        f"c={crash_count} crashes: {len(commits):4d} commits, "
        f"max strength reached = {best} "
        f"(theorem bound 2f-c = {expected}) "
        f"{'✓' if best == expected else '✗'}"
    )


def main() -> None:
    print("SFT-DiemBFT with n=10, f=3 — strength caps under crash faults\n")
    for crash_count in range(0, 4):
        run_with_crashes(crash_count)
    print(
        "\nEach crash permanently removes one potential endorser, so the"
        "\nbest achievable strong commit drops one level per crash — while"
        "\nregular (f-strong) commits continue unaffected up to c = f."
    )


if __name__ == "__main__":
    main()
