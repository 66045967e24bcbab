"""Shared runners for the paper-reproduction tests.

Every test here simulates a full cluster, asserts the claim the
corresponding paper figure or theorem makes, and prints the
series/rows that figure reports, so ``pytest benchmarks/ -s`` yields a
direct paper-vs-measured comparison.  Wall-clock performance is
measured by ``bench/`` (``python3 bench/run.py``), not here.

All cluster construction goes through the campaign engine's
:class:`~repro.experiments.ScenarioSpec`, so the benchmarks exercise
the exact same factory path as ``repro campaign run`` and the bundled
``scenarios/`` files.
"""

from __future__ import annotations

from repro.experiments import ScenarioSpec, reports_from_series
from repro.runtime.metrics import (
    regular_commit_latency,
    strong_latency_series,
)

PAPER_N = 100
PAPER_RATIOS = tuple(round(1.0 + 0.1 * i, 1) for i in range(11))


def symmetric_spec(
    delta: float,
    duration: float = 40.0,
    seed: int = 11,
    qc_extra_wait: float = 0.0,
    bandwidth: float = 125_000_000.0,
    protocol: str = "sft-diembft",
) -> ScenarioSpec:
    """One paper-scale symmetric-geo scenario (Figure 7a / 8 setting).

    Bandwidth modelling (450 KB blocks on 1 Gbps uplinks) staggers
    proposal dissemination exactly like the paper's testbed, which
    spreads vote arrivals and makes strong-QC membership diverse.
    """
    return ScenarioSpec(
        name="fig7a_symmetric",
        protocol=protocol,
        n=PAPER_N,
        topology="symmetric",
        delta=delta,
        jitter=0.004,
        duration=duration,
        round_timeout=3.0,
        seeds=(seed,),
        qc_extra_wait=qc_extra_wait,
        verify_signatures=False,
        observers=10,
        bandwidth_bytes_per_sec=bandwidth,
        block_batch_count=1000,
        block_batch_bytes=450_000,
        ratios=PAPER_RATIOS,
        cutoff_fraction=0.66,
    )


def asymmetric_spec(
    delta: float, duration: float = 30.0, seed: int = 13
) -> ScenarioSpec:
    """One paper-scale asymmetric-geo scenario (Figure 7b setting).

    The 150 ms flat round timeout reproduces the paper's observed
    region-C leader replacement at δ = 200 ms while keeping C-led
    rounds viable at δ = 100 ms (Section 4.1).
    """
    return ScenarioSpec(
        name="fig7b_asymmetric",
        protocol="sft-diembft",
        n=PAPER_N,
        topology="asymmetric",
        delta=delta,
        jitter=0.004,
        duration=duration,
        round_timeout=0.15,
        timeout_multiplier=1.0,
        seeds=(seed,),
        verify_signatures=False,
        observers=10,
        block_batch_count=1000,
        block_batch_bytes=450_000,
        ratios=PAPER_RATIOS,
        cutoff_fraction=0.6,
        # The paper's protocol has no catch-up subprotocol; with sync
        # on, timeout-attached votes certify some replaced C-led rounds
        # and region-C votes leak into the chain, flattening the
        # published δ=200ms cap at 1.7f.  Keep the figure faithful.
        sync_enabled=False,
        # The paper's "strong-QC in the blockchain" accounting: series
        # over region-A/B observers only (region C is ids 90–99).
        series_observers=tuple(range(0, 90, 10)),
    )


def run_symmetric(
    delta: float,
    duration: float = 40.0,
    seed: int = 11,
    qc_extra_wait: float = 0.0,
    bandwidth: float = 125_000_000.0,
    protocol: str = "sft-diembft",
):
    """Build and run one symmetric-geo cluster via the scenario path."""
    spec = symmetric_spec(
        delta,
        duration=duration,
        seed=seed,
        qc_extra_wait=qc_extra_wait,
        bandwidth=bandwidth,
        protocol=protocol,
    )
    return spec.build(seed).run()


def run_asymmetric(delta: float, duration: float = 30.0, seed: int = 13):
    """Build and run one asymmetric-geo cluster via the scenario path."""
    return asymmetric_spec(delta, duration=duration, seed=seed).build(seed).run()


def series_from_job(job_entry: dict) -> list:
    """Rebuild LatencyReport points from a campaign job's metrics."""
    return reports_from_series(job_entry["metrics"]["strong_latency_series"])


def latency_table_rows(cluster, cutoff_fraction: float = 0.66):
    """Fig-7-style rows: (ratio, mean latency, samples, eligible)."""
    cutoff = cluster.simulator.now * cutoff_fraction
    return strong_latency_series(cluster, PAPER_RATIOS, created_before=cutoff)


def regular_latency(cluster, cutoff_fraction: float = 0.66):
    cutoff = cluster.simulator.now * cutoff_fraction
    mean, _count = regular_commit_latency(cluster, created_before=cutoff)
    return mean
