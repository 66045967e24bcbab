"""Campaign engine end-to-end: determinism, parallelism, CLI, scenarios."""

import io
import json
import multiprocessing
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments import (
    Campaign,
    CampaignRunner,
    ScenarioSpec,
    load_report,
    run_job,
)

SCENARIOS_DIR = Path(__file__).resolve().parents[2] / "scenarios"


def _tiny_campaign(seeds=(1,), **overrides):
    defaults = dict(
        name="tiny",
        protocol="sft-diembft",
        n=7,
        topology="uniform",
        uniform_delay=0.01,
        jitter=0.002,
        duration=4.0,
        round_timeout=0.5,
        seeds=seeds,
        block_batch_count=10,
        block_batch_bytes=1_000,
    )
    defaults.update(overrides)
    return Campaign(
        ScenarioSpec(**defaults), matrix={"protocol": ["diembft", "sft-diembft"]}
    )


class TestDeterminism:
    def test_same_seed_job_is_byte_identical(self):
        job = _tiny_campaign().expand()[1]
        first = run_job(job)
        second = run_job(job)
        assert json.dumps(first["metrics"], sort_keys=True) == json.dumps(
            second["metrics"], sort_keys=True
        )

    def test_different_seeds_differ(self):
        jobs = _tiny_campaign(seeds=(1, 2)).expand()
        results = [run_job(job) for job in jobs if "sft" in job.job_id]
        assert results[0]["metrics"] != results[1]["metrics"]

    def test_parallel_equals_serial(self):
        jobs = _tiny_campaign(seeds=(1, 2)).expand()
        serial = CampaignRunner(jobs, workers=1, name="t").run()
        parallel = CampaignRunner(jobs, workers=2, name="t").run()
        assert [entry["job_id"] for entry in serial["jobs"]] == [
            entry["job_id"] for entry in parallel["jobs"]
        ]
        assert json.dumps(
            [entry["metrics"] for entry in serial["jobs"]], sort_keys=True
        ) == json.dumps(
            [entry["metrics"] for entry in parallel["jobs"]], sort_keys=True
        )


class TestSixteenJobMatrix:
    """The acceptance matrix: scenarios/parallel16.toml, 4 workers vs 1."""

    def test_workers_do_not_change_results(self):
        campaign = Campaign.from_file(SCENARIOS_DIR / "parallel16.toml")
        jobs = campaign.expand()
        assert len(jobs) == 16
        serial = CampaignRunner(jobs, workers=1, name=campaign.name).run()
        workers = min(4, multiprocessing.cpu_count())
        parallel = CampaignRunner(jobs, workers=workers, name=campaign.name).run()
        assert json.dumps(
            [entry["metrics"] for entry in serial["jobs"]], sort_keys=True
        ) == json.dumps(
            [entry["metrics"] for entry in parallel["jobs"]], sort_keys=True
        )
        # Wall-clock is recorded in both reports; with real parallelism
        # available the fan-out must not be slower than ~serial.
        assert serial["wall_clock_s"] > 0
        assert parallel["wall_clock_s"] > 0
        if workers >= 4:
            assert parallel["wall_clock_s"] < serial["wall_clock_s"]

    def test_every_job_safe_and_committing(self):
        campaign = Campaign.from_file(SCENARIOS_DIR / "parallel16.toml")
        report = CampaignRunner(
            campaign.expand(), workers=min(4, multiprocessing.cpu_count())
        ).run()
        assert report["summary"]["all_invariants_ok"]
        for entry in report["jobs"]:
            assert entry["metrics"]["commits"] > 0, entry["job_id"]


class TestBundledScenarios:
    def test_all_scenarios_load_and_expand(self):
        paths = sorted(SCENARIOS_DIR.glob("*.toml"))
        assert len(paths) >= 8
        for path in paths:
            campaign = Campaign.from_file(path)
            jobs = campaign.expand()
            assert jobs, path.name
            assert len({job.job_id for job in jobs}) == len(jobs)

    def test_smoke_scenario_is_ci_sized(self):
        campaign = Campaign.from_file(SCENARIOS_DIR / "smoke.toml")
        assert campaign.job_count() <= 8
        assert campaign.base.duration <= 10.0

    def test_partition_heal_scenario_stalls_then_recovers(self):
        campaign = Campaign.from_file(SCENARIOS_DIR / "partition_heal.toml")
        entry = run_job(campaign.expand()[0])
        metrics = entry["metrics"]
        assert metrics["safety_ok"]
        # The partition wastes rounds but commits resume after healing.
        assert metrics["chain"]["skipped_rounds"] > 0
        assert metrics["commits"] > 50

    def test_mixed_faults_scenario_stays_safe(self):
        campaign = Campaign.from_file(SCENARIOS_DIR / "mixed_faults.toml")
        entry = run_job(campaign.expand()[0])
        assert entry["metrics"]["safety_ok"]
        assert entry["metrics"]["strong_safety_violations"] == 0
        assert entry["metrics"]["commits"] > 0


class TestCampaignCLI:
    def _run_cli(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def _write_spec(self, tmp_path):
        spec = tmp_path / "mini.toml"
        spec.write_text(
            "\n".join(
                [
                    'name = "mini"',
                    'topology = "uniform"',
                    "n = 4",
                    "duration = 3.0",
                    "round_timeout = 0.5",
                    "block_batch_count = 10",
                    "block_batch_bytes = 1000",
                    "seeds = [1]",
                    "[matrix]",
                    'protocol = ["diembft", "sft-diembft"]',
                ]
            )
        )
        return spec

    def test_campaign_run_writes_report(self, tmp_path):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "report.json"
        code, stdout, stderr = self._run_cli(
            ["campaign", "run", str(spec), "--workers", "2", "--out", str(out)]
        )
        assert code == 0
        assert "mini/protocol=diembft,seed=1" in stdout
        report = load_report(out)
        assert report["job_count"] == 2
        assert report["wall_clock_s"] > 0
        assert report["summary"]["all_invariants_ok"]

    def test_campaign_report_command(self, tmp_path):
        spec = self._write_spec(tmp_path)
        out = tmp_path / "report.json"
        assert self._run_cli(
            ["campaign", "run", str(spec), "--out", str(out)]
        )[0] == 0
        code, stdout, _ = self._run_cli(["campaign", "report", str(out)])
        assert code == 0
        assert "total commits:" in stdout

    def _baseline_run(self, tmp_path, tamper):
        """``campaign run --baseline`` against the run's own digests,
        passed through ``tamper`` first."""
        spec = self._write_spec(tmp_path)
        out = tmp_path / "report.json"
        assert self._run_cli(
            ["campaign", "run", str(spec), "--out", str(out)]
        )[0] == 0
        digests = load_report(out)["digests"]
        assert len(digests) == 2
        tamper(digests)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(digests))
        return self._run_cli(
            ["campaign", "run", str(spec), "--baseline", str(baseline)]
        )

    def test_campaign_run_matching_baseline_exits_0(self, tmp_path):
        code, stdout, _ = self._baseline_run(tmp_path, lambda digests: None)
        assert code == 0
        assert "baseline: 2 digests identical" in stdout

    def test_campaign_run_moved_digest_exits_1(self, tmp_path):
        job = "mini/protocol=sft-diembft,seed=1"

        def tamper(digests):
            digests[job] = "0000000000000000"

        code, stdout, _ = self._baseline_run(tmp_path, tamper)
        assert code == 1
        assert "baseline: 1 moved" in stdout
        assert f"{job}: 0000000000000000 -> " in stdout

    @pytest.mark.parametrize("content", [None, "{not json", '["a", "b"]'])
    def test_campaign_run_bad_baseline_exits_2_before_any_job(
        self, tmp_path, content
    ):
        spec = self._write_spec(tmp_path)
        baseline = tmp_path / "baseline.json"
        if content is not None:
            baseline.write_text(content)
        stdout, stderr = io.StringIO(), io.StringIO()
        with pytest.raises(SystemExit) as excinfo:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                cli_main(
                    ["campaign", "run", str(spec), "--baseline", str(baseline)]
                )
        assert excinfo.value.code == 2
        assert stderr.getvalue().startswith("error:")
        assert "mini/" not in stdout.getvalue() + stderr.getvalue()

    def test_missing_spec_file_errors(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            self._run_cli(["campaign", "run", str(tmp_path / "nope.toml")])
        assert excinfo.value.code == 2

    def test_typoed_spec_key_errors_cleanly(self, tmp_path):
        spec = tmp_path / "typo.toml"
        spec.write_text('name = "t"\nprotcol = "diembft"\n')
        with pytest.raises(SystemExit) as excinfo:
            self._run_cli(["campaign", "run", str(spec)])
        assert excinfo.value.code == 2

    def test_cross_axis_invalid_combo_errors_cleanly(self, tmp_path):
        spec = tmp_path / "combo.toml"
        spec.write_text(
            "\n".join(
                [
                    'name = "combo"',
                    "n = 7",
                    "duration = 2.0",
                    "[matrix]",
                    "n = [7, 4]",
                    '"faults.crash" = [0, 5]',
                ]
            )
        )
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(["campaign", "run", str(spec)])
        assert code == 2
        assert "error:" in stderr.getvalue()

    def test_inverted_partition_window_errors_cleanly(self, tmp_path):
        spec = tmp_path / "inverted.toml"
        spec.write_text(
            "\n".join(
                [
                    'name = "inverted"',
                    "n = 4",
                    "[[partitions]]",
                    "start = 5.0",
                    "end = 2.0",
                ]
            )
        )
        with pytest.raises(SystemExit) as excinfo:
            self._run_cli(["campaign", "run", str(spec)])
        assert excinfo.value.code == 2

    def test_negative_latency_errors_cleanly(self, tmp_path):
        spec = tmp_path / "latency.toml"
        spec.write_text('name = "l"\nn = 4\njitter = -0.5\n')
        with pytest.raises(SystemExit) as excinfo:
            self._run_cli(["campaign", "run", str(spec)])
        assert excinfo.value.code == 2

    def test_nan_latency_errors_cleanly(self, tmp_path):
        spec = tmp_path / "nan.toml"
        spec.write_text('name = "n"\nn = 4\nuniform_delay = nan\n')
        with pytest.raises(SystemExit) as excinfo:
            self._run_cli(["campaign", "run", str(spec)])
        assert excinfo.value.code == 2

    def test_overfull_fault_mix_errors_cleanly(self, tmp_path):
        spec = tmp_path / "overfull.toml"
        spec.write_text(
            'name = "o"\nn = 4\n[faults]\nsilent = 3\nequivocate = 2\n'
        )
        with pytest.raises(SystemExit) as excinfo:
            self._run_cli(["campaign", "run", str(spec)])
        assert excinfo.value.code == 2

    def test_malformed_report_errors_cleanly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            self._run_cli(["campaign", "report", str(bad)])
        assert excinfo.value.code == 2
