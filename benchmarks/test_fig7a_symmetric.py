"""E1 — Figure 7a: strong commit latency, symmetric geo-distribution.

Paper setup: n = 100 replicas in 3 even regions, inter-region delay
δ ∈ {100, 200} ms, saturated 1000-txn/450 KB blocks; y-axis is the
mean latency from block creation to x-strong commit, x ∈ [f, 2f].

Expected shape (paper): latency grows near-linearly with x; a jump at
1.1f (one extra strong-QC round-trip beyond the 3-chain) and a larger
jump at 2f (stragglers' votes enter strong-QCs rarely); δ = 200 ms
shifts the whole curve up.

Runs ``scenarios/fig7a_symmetric.toml`` (a two-job campaign, matrix
over δ) through the experiment engine — the same path as
``repro campaign run`` and ``repro figure`` on that file.
"""

from repro.analysis import format_fig7_table, line_chart

from benchmarks.conftest import run_figure, series_from_job


def test_fig7a_symmetric_geo_distribution():
    report = run_figure("fig7a_symmetric")

    results = {}
    for job_entry in report["jobs"]:
        assert job_entry["metrics"]["safety_ok"], job_entry["job_id"]
        label = f"δ={job_entry['params']['delta'] * 1000:.0f}ms"
        results[label] = series_from_job(job_entry)

    print()
    print(format_fig7_table(
        results,
        title="Figure 7a — strong commit latency, symmetric geo (n=100, f=33)",
    ))
    print()
    print(line_chart(
        {
            label: [(point.ratio, point.mean_latency) for point in series]
            for label, series in results.items()
        },
        x_label="x-strong (f)",
        y_label="latency (s)",
    ))

    # Shape assertions mirroring the paper's observations.
    for label, series in results.items():
        by_ratio = {point.ratio: point for point in series}
        base = by_ratio[1.0].mean_latency
        step = by_ratio[1.1].mean_latency
        top = by_ratio[2.0].mean_latency
        near_top = by_ratio[1.9].mean_latency
        assert base is not None and top is not None
        # Jump at 1.1f: at least one more QC round-trip.
        assert step > base * 1.05, label
        # Monotone growth overall.
        assert top > near_top > step * 0.99, label
        # 2f costs markedly more than 1.9f (straggler effect).
        assert top > near_top * 1.1, label
    # δ = 200 ms curve sits above δ = 100 ms.
    assert (
        results["δ=200ms"][0].mean_latency
        > results["δ=100ms"][0].mean_latency
    )
