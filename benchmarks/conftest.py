"""Shared runners for the paper-reproduction tests.

Every test here simulates a full cluster, asserts the claim the
corresponding paper figure or theorem makes, and prints the
series/rows that figure reports, so ``pytest benchmarks/ -s`` yields a
direct paper-vs-measured comparison.  Wall-clock performance is
measured by ``bench/`` (``python3 bench/run.py``), not here.

Each paper figure is described once, by its campaign file under
``scenarios/``; the tests load those files, so they exercise the exact
same specs and factory path as ``repro campaign run`` and
``repro figure``.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import Campaign, CampaignRunner, reports_from_series
from repro.runtime.metrics import regular_commit_latency

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def figure_campaign(name: str) -> Campaign:
    """The committed campaign for one paper figure (``scenarios/<name>.toml``)."""
    return Campaign.from_file(SCENARIOS / f"{name}.toml")


def run_figure(name: str) -> dict:
    """Run a figure campaign serially; returns the campaign report."""
    return CampaignRunner(figure_campaign(name).expand(), workers=1).run()


def series_from_job(job_entry: dict) -> list:
    """Rebuild LatencyReport points from a campaign job's metrics."""
    return reports_from_series(job_entry["metrics"]["strong_latency_series"])


def regular_latency(cluster, cutoff_fraction: float = 0.66):
    cutoff = cluster.simulator.now * cutoff_fraction
    mean, _count = regular_commit_latency(cluster, created_before=cutoff)
    return mean
