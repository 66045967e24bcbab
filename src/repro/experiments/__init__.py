"""Declarative experiment campaigns: specs, matrices, parallel runs.

The sweep entry point for the whole repo: describe a scenario (or a
matrix of them) in TOML/JSON, expand it into jobs, run the jobs in
parallel, and check each job's metrics digest against a committed
baseline.

    from repro.experiments import Campaign, run_campaign

    campaign = Campaign.from_file("scenarios/smoke.toml")
    report = run_campaign(campaign, workers=4)
"""

from repro.experiments.baseline import (
    load_baseline,
    load_report,
    moved_digests,
    save_report,
)
from repro.experiments.campaign import Campaign, Job
from repro.experiments.runner import (
    CampaignRunner,
    collect_job_metrics,
    reports_from_series,
    run_campaign,
    run_job,
)
from repro.experiments.spec import (
    FaultMix,
    PartitionWindow,
    ScenarioSpec,
    load_scenario,
    save_scenario,
    spec_from_mapping,
    spec_to_mapping,
)

__all__ = [
    "ScenarioSpec",
    "FaultMix",
    "PartitionWindow",
    "load_scenario",
    "save_scenario",
    "spec_from_mapping",
    "spec_to_mapping",
    "Campaign",
    "Job",
    "CampaignRunner",
    "run_campaign",
    "run_job",
    "collect_job_metrics",
    "reports_from_series",
    "moved_digests",
    "load_baseline",
    "save_report",
    "load_report",
]
