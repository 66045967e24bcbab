"""Throughput pipeline end-to-end: batching, pipelining, linear votes.

Covers the full transaction path (KV workload → mempools → batched
proposals → removal at commit), proposals that skip what the parent's
uncommitted chain carries, the O(n²) → O(n) vote-traffic change under
linear vote collection, determinism across worker counts with every
new flag on, and — the other direction — that with every flag off the
committed campaign baseline and two pinned counter sets replay
byte-identically.
"""

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.experiments import (
    Campaign,
    CampaignRunner,
    FaultMix,
    ScenarioSpec,
    load_baseline,
    moved_digests,
    run_job,
)
from repro.experiments.campaign import Job
from repro.experiments.runner import collect_job_metrics

ROOT = Path(__file__).resolve().parents[2]
SCENARIOS_DIR = ROOT / "scenarios"


def _workload_spec(**overrides):
    defaults = dict(
        name="tput",
        protocol="sft-diembft",
        n=4,
        topology="uniform",
        uniform_delay=0.01,
        jitter=0.002,
        duration=4.0,
        round_timeout=0.5,
        seeds=(1,),
        workload_rate=500.0,
        batch_size=64,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def _run(spec):
    return run_job(Job(job_id=f"t/{spec.name}", spec=spec, seed=spec.seeds[0]))


class TestBatchedWorkload:
    def test_workload_commits_real_transactions(self):
        spec = _workload_spec()
        cluster = spec.build().run()
        metrics = collect_job_metrics(cluster, spec)
        txs = metrics["txs"]
        latencies = cluster.workload.end_to_end_latencies()
        # Submission → batching → 3-chain commit at 10 ms links.
        assert 0.02 < sum(latencies) / len(latencies) < 2.0
        assert txs["submitted"] > 0
        assert 0 < txs["committed_unique"] <= txs["submitted"]
        assert txs["per_sec"] > 0
        assert txs["e2e_p50_s"] is not None
        assert txs["e2e_p50_s"] <= txs["e2e_p99_s"]
        assert metrics["regular_latency_p50_s"] <= metrics["regular_latency_p99_s"]
        assert metrics["invariants"]["ok"]

    def test_batch_size_caps_block_payloads(self):
        # A tiny batch cap under a fast workload forces a backlog: no
        # committed block may carry more than batch_size transactions.
        spec = _workload_spec(name="tput-cap", batch_size=8, workload_rate=1000.0)
        cluster = spec.build().run()
        reference = cluster.correct_replicas()[0]
        sizes = [
            len(reference.store.maybe_get(event.block_id).payload.transactions)
            for event in reference.commit_tracker.commit_order
        ]
        assert max(sizes) == 8

    def test_checkpoint_truncation_hides_no_committed_transaction(self):
        # Checkpoints prune committed blocks every 4 heights; the
        # workload counts each block as it commits, so pruning must not
        # shrink the count.
        plain = _run(_workload_spec())["metrics"]["txs"]
        pruned = _run(_workload_spec(checkpoint_interval=4))["metrics"]
        assert pruned["checkpoint"]["blocks_truncated"] > 0
        unique = pruned["txs"]["committed_unique"]
        assert abs(unique - plain["committed_unique"]) < 0.05 * unique

    def test_workload_off_reports_zero_txs(self):
        spec = _workload_spec(name="tput-off", workload_rate=0.0, duration=3.0)
        metrics = _run(spec)["metrics"]
        # The chain keeps committing (empty payloads) with no workload.
        assert metrics["commits"] > 20
        txs = metrics["txs"]
        assert txs == {
            "submitted": 0,
            "committed_unique": 0,
            "duplicates": 0,
            "per_sec": 0.0,
            "e2e_p50_s": None,
            "e2e_p99_s": None,
        }


class TestPipelinedProposals:
    def test_pipelining_suppresses_duplicate_proposals(self):
        # A crashed replica breaks 3-chains, so a leader's block is
        # often still uncommitted at its next turn.  Its next proposal
        # skips what that chain carries, so no copy commits twice and
        # the pipelined drain has nothing left to suppress.
        base = _workload_spec(
            name="tput-pipe", workload_rate=1000.0, batch_size=32,
            faults=FaultMix(crash=1),
        )
        plain = _run(base)["metrics"]["txs"]
        pipelined = _run(base.with_overrides(pipelined_proposals=True))[
            "metrics"
        ]["txs"]
        assert plain == pipelined
        assert pipelined["duplicates"] == 0
        assert pipelined["committed_unique"] > 0

    def test_checkpoint_smoke_commits_no_duplicate(self):
        # The checkpoint CI campaign's shape: snapshot join after a
        # partition, checkpoints every 4 heights, no pipelining.
        campaign = Campaign.from_file(SCENARIOS_DIR / "checkpoint_smoke.toml")
        job = next(
            job for job in campaign.expand()
            if job.spec.protocol == "sft-diembft"
        )
        assert not job.spec.pipelined_proposals
        txs = run_job(job)["metrics"]["txs"]
        assert txs["duplicates"] == 0
        assert txs["committed_unique"] > 0


class TestLinearVoteCollection:
    def test_vote_traffic_drops_from_quadratic_to_linear_at_n32(self):
        # Streamlet broadcasts votes (n per voter ⇒ n² per round);
        # linear collection sends each vote to one collector and fans
        # the certificate back out as n QCMsgs ⇒ O(n) per round.
        spec = ScenarioSpec(
            name="linear32",
            protocol="streamlet",
            n=32,
            topology="uniform",
            uniform_delay=0.01,
            streamlet_round_duration=0.1,
            duration=1.2,
            verify_signatures=False,
            seeds=(1,),
        )
        broadcast = _run(spec)["metrics"]
        linear = _run(spec.with_overrides(linear_votes=True))["metrics"]
        assert linear["commits"] == broadcast["commits"] > 0
        votes_linear = linear["messages"]["by_type"]["VoteMsg"]
        votes_broadcast = broadcast["messages"]["by_type"]["VoteMsg"]
        # n=32: broadcast is ~32× linear; leave slack for timeouts.
        assert votes_broadcast > 8 * (
            votes_linear + linear["messages"]["by_type"]["QCMsg"]
        )
        assert "QCMsg" not in broadcast["messages"]["by_type"]


class TestThroughputDeterminism:
    def test_worker_count_invariant_with_all_flags_on(self):
        campaign = Campaign(
            _workload_spec(
                name="tput-det",
                protocol="sft-streamlet",
                n=7,
                duration=3.0,
                pipelined_proposals=True,
                linear_votes=True,
                seeds=(1, 2),
            ),
            matrix={"protocol": ["sft-diembft", "sft-streamlet"]},
        )
        jobs = campaign.expand()
        serial = CampaignRunner(jobs, workers=1, name="t").run()
        workers = min(2, multiprocessing.cpu_count())
        parallel = CampaignRunner(jobs, workers=workers, name="t").run()
        assert json.dumps(
            [entry["metrics"] for entry in serial["jobs"]], sort_keys=True
        ) == json.dumps(
            [entry["metrics"] for entry in parallel["jobs"]], sort_keys=True
        )
        for entry in serial["jobs"]:
            assert entry["metrics"]["txs"]["committed_unique"] > 0


class TestFlagsOffBaselines:
    """Default-off discipline: no flag ⇒ byte-identical replays."""

    def test_smoke_campaign_replays_committed_baseline(self):
        campaign = Campaign.from_file(SCENARIOS_DIR / "smoke.toml")
        report = CampaignRunner(
            campaign.expand(), workers=1, name=campaign.name
        ).run()
        baseline = load_baseline(SCENARIOS_DIR / "baselines" / "smoke.json")
        assert moved_digests(report["digests"], baseline) == {}

    @pytest.mark.parametrize(
        "spec, seed, events, commits, sent",
        [
            (
                ScenarioSpec(
                    name="happy_n4", n=4, round_timeout=0.25,
                    verify_signatures=False, sync_enabled=False, duration=8.0,
                    observers=1,
                ),
                1, 2978, 370, 2976,
            ),
            (
                ScenarioSpec(
                    name="fuzz-smoke-00007", protocol="sft-streamlet", n=4,
                    uniform_delay=0.0199, jitter=0.0049, gst=0.924,
                    pre_gst_delay=0.273, round_timeout=0.3, sync_enabled=False,
                    duration=4.791, seeds=(7,),
                    faults=FaultMix(withhold=1, lazy_delay=0.371),
                ),
                7, 6220, 70, 5903,
            ),
        ],
        ids=["happy_n4", "fuzz_smoke_seed7"],
    )
    def test_deterministic_counters_replay(self, spec, seed, events, commits, sent):
        # A sync-off happy path and a fuzz-shaped Streamlet schedule:
        # events/commits/messages are pure functions of (spec, seed).
        metrics = run_job(Job(job_id="pin", spec=spec, seed=seed))["metrics"]
        assert metrics["events"] == events
        assert metrics["commits"] == commits
        assert metrics["messages"]["sent"] == sent
