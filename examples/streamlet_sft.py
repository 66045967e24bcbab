#!/usr/bin/env python3
"""Appendix D: strengthened fault tolerance on Streamlet.

Runs both Streamlet and SFT-Streamlet side by side, showing that the
SFT layer ports across protocols: height-based markers, k-endorsements
and the middle-commit strong 3-chain rule.  Also demonstrates the
message-complexity gulf between Streamlet's all-to-all + echo pattern
(O(n³) per round) and DiemBFT's linear votes.

Run:  python examples/streamlet_sft.py
"""

from repro import ScenarioSpec, strong_latency_series
from repro.analysis.invariants import check_prefix_consistency


def run(protocol: str):
    spec = ScenarioSpec(
        protocol=protocol,
        n=7,
        topology="uniform",
        uniform_delay=0.010,
        jitter=0.002,
        duration=8.0,
        round_timeout=1.0,
        seeds=(3,),
        block_batch_count=10,
        block_batch_bytes=1_000,
    )
    cluster = spec.build().run()
    assert not check_prefix_consistency(cluster.replicas)
    return cluster


def main() -> None:
    print("Streamlet vs SFT-Streamlet vs SFT-DiemBFT (n=7, 8s simulated)\n")
    rows = []
    for protocol in ("streamlet", "sft-streamlet", "sft-diembft"):
        cluster = run(protocol)
        replica = cluster.replicas[0]
        commits = len(replica.commit_tracker.commit_order)
        messages = cluster.network.messages_sent
        rows.append((protocol, commits, messages, messages / max(1, commits)))
    print(f"{'protocol':<15}{'commits':>9}{'messages':>11}{'msgs/block':>12}")
    for protocol, commits, messages, per_block in rows:
        print(f"{protocol:<15}{commits:>9}{messages:>11}{per_block:>12.0f}")

    print("\nSFT-Streamlet strength growth (middle-commit strong 3-chain):")
    cluster = run("sft-streamlet")
    series = strong_latency_series(
        cluster, ratios=(1.0, 1.5, 2.0), created_before=5.0
    )
    for point in series:
        latency = (
            f"{point.mean_latency * 1000:.0f} ms"
            if point.mean_latency is not None
            else "not reached"
        )
        print(f"  x={point.ratio:.1f}f (level {point.level}): {latency} "
              f"({point.samples}/{point.eligible} block views)")

    print(
        "\nNote (Appendix D.4): reverting an SFT-Streamlet strong commit"
        "\nrequires the adversary to regrow a competitive-length certified"
        "\nchain (≈ h rounds of sustained corruption), while SFT-DiemBFT"
        "\nonly needs one higher-round certified block."
    )


if __name__ == "__main__":
    main()
