"""E3 — Figure 8: regular-commit vs strong-commit latency trade-off.

Paper setup: symmetric geo-distribution, δ = 100 ms; leaders wait an
extra period after receiving 2f + 1 strong-votes, folding straggler
votes into the strong-QC; sweep the wait and plot, for each strength
level, (regular commit latency, strong commit latency).

Expected shape (paper): a small regular-latency sacrifice cuts the
2f-strong latency drastically (≈ 10 s → ≈ 5 s in the paper); each
x-strong curve first drops then merges with the regular-commit line
once QCs hold at least x + f + 1 votes.
"""

from repro.core.resilience import level_for_ratio
from repro.runtime.metrics import check_commit_safety, strong_commit_latency

from benchmarks.conftest import regular_latency, run_symmetric

WAITS = (0.0, 0.05, 0.1, 0.2, 0.4)
LEVELS = (1.2, 1.4, 1.6, 1.8, 2.0)


def test_fig8_regular_vs_strong_tradeoff():
    f = 33
    points = {ratio: [] for ratio in LEVELS}
    regulars = []

    for wait in WAITS:
        cluster = run_symmetric(
            delta=0.100, duration=40.0, qc_extra_wait=wait, seed=23
        )
        check_commit_safety(cluster.observer_replicas())
        cutoff = cluster.simulator.now * 0.6
        regular = regular_latency(cluster)
        regulars.append((wait, regular))
        for ratio in LEVELS:
            strong, _, _ = strong_commit_latency(
                cluster, level_for_ratio(ratio, f), created_before=cutoff
            )
            points[ratio].append((regular, strong))

    print()
    print("Figure 8 — strong vs regular commit latency trade-off "
          "(symmetric, δ=100ms)")
    header = f"{'extra wait':>11}{'regular(s)':>12}" + "".join(
        f"{f'{ratio:.1f}f(s)':>10}" for ratio in LEVELS
    )
    print(header)
    for index, (wait, regular) in enumerate(regulars):
        row = f"{wait * 1000:>9.0f}ms{regular:>12.3f}"
        for ratio in LEVELS:
            strong = points[ratio][index][1]
            row += f"{strong:>10.3f}" if strong is not None else f"{'—':>10}"
        print(row)

    # Regular latency grows with the wait (the sacrifice).
    regular_values = [regular for _, regular in regulars]
    assert regular_values[-1] > regular_values[0]

    # The 2f-strong latency drops sharply from wait=0 to a modest wait.
    top = points[2.0]
    assert top[0][1] is not None and top[-1][1] is not None
    assert top[-1][1] < top[0][1] * 0.7

    # With the largest wait every curve merges with the regular line.
    final_regular = regular_values[-1]
    for ratio in LEVELS:
        final_strong = points[ratio][-1][1]
        assert final_strong is not None
        assert abs(final_strong - final_regular) < 0.25 * final_regular, (
            f"{ratio}f did not merge: {final_strong} vs {final_regular}"
        )
