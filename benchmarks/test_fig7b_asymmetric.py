"""E2 — Figure 7b: strong commit latency, asymmetric geo-distribution.

Paper setup: regions A = 45, B = 45, C = 10 replicas; A↔B is 20 ms,
C↔{A,B} is δ ∈ {100, 200} ms.

Expected shape (paper):

* commits up to 1.7f-strong (x = 56 = 90 - f - 1) need endorsers from
  A∪B only and stay cheap;
* ≥ 1.8f requires region-C strong-votes, which enter strong-QCs only
  when a C replica collects votes (10 rounds per 100) → large jump;
* at δ = 200 ms, C-led rounds time out and are replaced, so region-C
  votes never reach the chain and the A/B view caps at 1.7f.

Runs ``scenarios/fig7b_asymmetric.toml`` (a two-job campaign, matrix
over δ) through the experiment engine; the file's ``series_observers``
restricts the latency series to region-A/B observers — the paper's
"strong-QC in the blockchain" accounting.
"""

from repro.analysis import format_fig7_table

from benchmarks.conftest import run_figure, series_from_job


def test_fig7b_asymmetric_geo_distribution():
    report = run_figure("fig7b_asymmetric")

    results = {}
    for job_entry in report["jobs"]:
        assert job_entry["metrics"]["safety_ok"], job_entry["job_id"]
        label = f"δ={job_entry['params']['delta'] * 1000:.0f}ms"
        results[label] = series_from_job(job_entry)

    print()
    print(format_fig7_table(
        results,
        title=(
            "Figure 7b — strong commit latency, asymmetric geo "
            "(A=45, B=45, C=10; A↔B=20ms)"
        ),
    ))

    series_100 = {point.ratio: point for point in results["δ=100ms"]}
    series_200 = {point.ratio: point for point in results["δ=200ms"]}

    # δ=100ms: plateau through 1.7f, jump at 1.8f (region-C rounds).
    assert series_100[1.7].mean_latency is not None
    assert series_100[1.8].mean_latency is not None
    assert (
        series_100[1.8].mean_latency > series_100[1.7].mean_latency * 2.5
    )
    assert series_100[1.7].mean_latency < series_100[1.0].mean_latency * 4

    # δ=200ms: C leaders replaced → the chain never carries C votes;
    # nothing past 1.7f is achieved in the A/B (on-chain) view.
    assert series_200[1.7].mean_latency is not None
    for ratio in (1.8, 1.9, 2.0):
        assert series_200[ratio].samples == 0, (
            f"x={ratio}f unexpectedly reached at δ=200ms"
        )
