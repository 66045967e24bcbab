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

from benchmarks.conftest import run_figure, series_from_job


def test_fig8_regular_vs_strong_tradeoff():
    # ``scenarios/fig8_tradeoff.toml``: one job per extra wait (the
    # matrix axis), each reporting the 1.2f … 2f strong series.
    report = run_figure("fig8_tradeoff")
    waits, regulars = [], []
    points = {}
    for job_entry in report["jobs"]:
        metrics = job_entry["metrics"]
        assert metrics["safety_ok"], job_entry["job_id"]
        waits.append(job_entry["params"]["qc_extra_wait"])
        regulars.append(metrics["regular_latency_s"])
        for point in series_from_job(job_entry):
            points.setdefault(point.ratio, []).append(point.mean_latency)
    levels = list(points)

    print()
    print("Figure 8 — strong vs regular commit latency trade-off "
          "(symmetric, δ=100ms)")
    header = f"{'extra wait':>11}{'regular(s)':>12}" + "".join(
        f"{f'{ratio:.1f}f(s)':>10}" for ratio in levels
    )
    print(header)
    for index, (wait, regular) in enumerate(zip(waits, regulars)):
        row = f"{wait * 1000:>9.0f}ms{regular:>12.3f}"
        for ratio in levels:
            strong = points[ratio][index]
            row += f"{strong:>10.3f}" if strong is not None else f"{'—':>10}"
        print(row)

    # Regular latency grows with the wait (the sacrifice).
    assert regulars[-1] > regulars[0]

    # The 2f-strong latency drops sharply from wait=0 to a modest wait.
    top = points[2.0]
    assert top[0] is not None and top[-1] is not None
    assert top[-1] < top[0] * 0.7

    # With the largest wait every curve merges with the regular line.
    final_regular = regulars[-1]
    for ratio in levels:
        final_strong = points[ratio][-1]
        assert final_strong is not None
        assert abs(final_strong - final_regular) < 0.25 * final_regular, (
            f"{ratio}f did not merge: {final_strong} vs {final_regular}"
        )
