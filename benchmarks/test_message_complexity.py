"""E5 — message complexity: SFT-DiemBFT O(n) vs FBFT-adapted O(n²).

Section 3.2 / Appendix B: adapting FBFT's flexible quorums to DiemBFT
forces the vote collector to multicast up to f late votes per round
(one multicast each), i.e. O(f·n) = O(n²) messages per block decision,
while SFT-DiemBFT keeps the linear 2n (proposal multicast + votes to
the next leader).

This bench sweeps n and reports messages per committed block for both
protocols; the growth exponent is estimated from the endpoints.
"""

import math

from repro.analysis.invariants import check_prefix_consistency
from repro.experiments.spec import ScenarioSpec

SWEEP_N = (7, 13, 25, 49, 100)


def run_uniform(protocol: str, n: int, duration: float, seed: int = 31):
    spec = ScenarioSpec(
        protocol=protocol,
        n=n,
        topology="uniform",
        uniform_delay=0.010,
        jitter=0.002,
        duration=duration,
        round_timeout=1.0,
        seeds=(seed,),
        verify_signatures=False,
        observers=(0,),
        block_batch_count=100,
        block_batch_bytes=10_000,
    )
    return spec.build().run()


def messages_per_block(cluster) -> float:
    observer = cluster.observer_replicas()[0]
    blocks = len(observer.commit_tracker.commit_order)
    return cluster.network.messages_sent / max(1, blocks)


def test_message_complexity_sft_vs_fbft():
    rows = []

    for n in SWEEP_N:
        duration = 10.0 if n <= 25 else 5.0
        per_block = {}
        for protocol in ("sft-diembft", "fbft"):
            cluster = run_uniform(protocol, n, duration)
            assert not check_prefix_consistency(cluster.observer_replicas())
            per_block[protocol] = messages_per_block(cluster)
        rows.append((n, per_block["sft-diembft"], per_block["fbft"]))

    print()
    print("Messages per committed block — SFT-DiemBFT vs FBFT-adapted")
    print(f"{'n':>5}{'SFT (O(n))':>14}{'FBFT (O(n²))':>14}{'ratio':>8}")
    for n, sft, fbft in rows:
        print(f"{n:>5}{sft:>14.1f}{fbft:>14.1f}{fbft / sft:>8.2f}")

    # Growth exponents from the sweep endpoints.
    n_low, sft_low, fbft_low = rows[0]
    n_high, sft_high, fbft_high = rows[-1]
    scale = math.log(n_high / n_low)
    sft_exponent = math.log(sft_high / sft_low) / scale
    fbft_exponent = math.log(fbft_high / fbft_low) / scale
    print(f"\nestimated growth: SFT ~ n^{sft_exponent:.2f}, "
          f"FBFT ~ n^{fbft_exponent:.2f}")

    # SFT stays (near-)linear; FBFT clearly super-linear.
    assert sft_exponent < 1.25
    assert fbft_exponent > 1.5
    # At the paper's n = 100, FBFT costs several× more messages.
    assert fbft_high > 2.5 * sft_high
