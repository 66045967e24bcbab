#!/usr/bin/env python3
"""Quickstart: run SFT-DiemBFT and watch a block's resilience grow.

Simulates a 7-replica cluster (f = 2) on a flat 10 ms network, then
shows, for one committed block, the timeline of its strength levels:
it commits at f-strong (the regular 3-chain rule) and climbs to
2f-strong as successor strong-QCs accumulate endorsements — the SFT
analogue of a transaction getting "buried deeper" in Nakamoto
consensus.

Run:  python examples/quickstart.py
"""

from repro import ScenarioSpec
from repro.analysis.invariants import check_prefix_consistency


def main() -> None:
    spec = ScenarioSpec(
        protocol="sft-diembft",
        n=7,
        topology="uniform",
        uniform_delay=0.010,
        jitter=0.002,
        duration=10.0,
        round_timeout=0.5,
        seeds=(7,),
        block_batch_count=100,
        block_batch_bytes=10_000,
    )
    f = spec.resolved_f()
    print(f"running {spec.protocol} with n={spec.n}, f={f} "
          f"for {spec.duration:.0f}s of simulated time…")

    cluster = spec.build().run()
    assert not check_prefix_consistency(cluster.replicas)

    replica = cluster.replicas[0]
    commits = replica.commit_tracker.commit_order
    print(f"replica 0 committed {len(commits)} blocks "
          f"(highest round {replica.current_round})\n")

    # Pick a block from the middle of the run and print its strength
    # timeline as seen by replica 0.
    event = commits[len(commits) // 2]
    block = replica.store.get(event.block_id)
    timeline = replica.commit_tracker.timeline_of(event.block_id)
    print(f"block at round {block.round} (created t={block.created_at:.3f}s):")
    print(f"  regular commit (f-strong, f={f}) at t={event.committed_at:.3f}s "
          f"→ latency {event.latency() * 1000:.0f} ms")
    for level in range(f, 2 * f + 1):
        reached = timeline.first_reached(level)
        if reached is None:
            print(f"  {level}-strong: not reached")
            continue
        latency_ms = (reached - block.created_at) * 1000
        extra = " ← tolerates up to 2f faults" if level == 2 * f else ""
        print(f"  {level}-strong at t={reached:.3f}s "
              f"→ latency {latency_ms:.0f} ms{extra}")

    print("\nendorser counts for the same block's 3-chain:")
    cursor = block
    for _ in range(3):
        count = replica.endorser_count(cursor.id())
        print(f"  round {cursor.round}: {count}/{spec.n} endorsers")
        children = replica.store.children(cursor.id())
        if not children:
            break
        cursor = replica.store.get(children[0])

    stats = cluster.message_stats()
    print(f"\nnetwork: {stats['sent']} messages, "
          f"{stats['bytes'] / 1e6:.1f} MB simulated")


if __name__ == "__main__":
    main()
