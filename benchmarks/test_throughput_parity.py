"""E4 — throughput parity: SFT-DiemBFT ≈ DiemBFT.

The paper omits throughput plots because "the throughput of
SFT-DiemBFT is almost identical to that of the original DiemBFT
protocol in all our experiments" — the only wire overhead is one
marker integer per vote.  This bench regenerates that claim as a
table: committed transactions per second under the symmetric setting,
plus the regular-commit latency for completeness.
"""

from repro.analysis.invariants import check_prefix_consistency
from repro.runtime.metrics import throughput_txps

from benchmarks.conftest import figure_campaign, regular_latency


def test_throughput_parity_sft_vs_diembft():
    results = {}
    # The Figure 7a setting at δ = 100 ms, once per protocol.
    base = figure_campaign("fig7a_symmetric").base

    for protocol in ("diembft", "sft-diembft"):
        spec = base.with_overrides(
            protocol=protocol, delta=0.100, duration=30.0, seeds=(29,)
        )
        cluster = spec.build(29).run()
        assert not check_prefix_consistency(cluster.observer_replicas())
        results[protocol] = (
            throughput_txps(cluster),
            regular_latency(cluster),
            cluster.network.messages_sent,
            cluster.network.bytes_sent,
        )

    print()
    print("Throughput parity (symmetric, δ=100ms, n=100, 1000-txn blocks)")
    print(f"{'protocol':<14}{'txn/s':>10}{'regular(s)':>12}"
          f"{'messages':>10}{'MB sent':>9}")
    for protocol, (tput, latency, msgs, volume) in results.items():
        print(f"{protocol:<14}{tput:>10.0f}{latency:>12.3f}"
              f"{msgs:>10}{volume / 1e6:>9.0f}")

    tput_plain = results["diembft"][0]
    tput_sft = results["sft-diembft"][0]
    assert tput_plain > 0
    # "Almost identical": within 2%.
    assert abs(tput_sft - tput_plain) / tput_plain < 0.02

    # The wire overhead of strong-votes is marginal (< 1% bytes).
    bytes_plain = results["diembft"][3]
    bytes_sft = results["sft-diembft"][3]
    assert abs(bytes_sft - bytes_plain) / bytes_plain < 0.01
