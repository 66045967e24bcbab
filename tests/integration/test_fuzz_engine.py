"""Fuzz engine end-to-end: determinism, oracle wiring, shrinker, CLI."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.experiments import load_scenario, save_scenario
from repro.experiments.spec import ScenarioSpec
from repro.fuzz import (
    SMOKE_PROFILE,
    evaluate_case,
    run_fuzz,
    shrink_spec,
    spec_fails,
)

BASELINES_DIR = Path(__file__).resolve().parents[2] / "scenarios" / "baselines"
FUZZ_SEEDS = range(4)


@pytest.fixture(scope="module")
def serial_report():
    return run_fuzz(FUZZ_SEEDS, SMOKE_PROFILE, workers=1)


@pytest.fixture(scope="module")
def parallel_report():
    return run_fuzz(FUZZ_SEEDS, SMOKE_PROFILE, workers=2)


class TestEngineDeterminism:
    def test_same_seeds_byte_identical_report(self, serial_report, parallel_report):
        assert json.dumps(serial_report, sort_keys=True) == json.dumps(
            parallel_report, sort_keys=True
        )

    def test_report_shape(self, parallel_report):
        report = parallel_report
        assert report["profile"] == "smoke"
        assert report["seeds"] == list(FUZZ_SEEDS)
        assert len(report["cases"]) == len(list(FUZZ_SEEDS))
        from repro.experiments import spec_from_mapping

        assert list(report["digests"]) == [case["name"] for case in report["cases"]]
        for case in report["cases"]:
            assert case["ok"] in (True, False)
            # every fuzz case must be reconstructible from its report
            assert spec_from_mapping(case["spec"]).name == case["name"]


class TestAppendixCFlagging:
    """The acceptance path: a deliberately naive-accounting run is
    flagged as a Definition-1 violation with a shrunk replayable spec."""

    def _naive_spec(self):
        return ScenarioSpec(
            name="appendix-c-naive",
            script="appendix_c",
            n=10,
            gst=1.0,  # noise the shrinker must strip
            jitter=0.003,
            naive_accounting=True,
            seeds=(0,),
        )

    def test_naive_run_flagged_as_definition_1(self):
        entry = evaluate_case(self._naive_spec(), 0)
        invariants = entry["metrics"]["invariants"]
        assert invariants["ok"]  # expected counterexample, not a failure
        assert len(invariants["violations"]) == 1
        violation = invariants["violations"][0]
        assert violation["invariant"] == "definition-1"
        assert violation["expected"] is True
        assert "naive accounting" in violation["detail"]

    def test_sound_accounting_is_safe_on_same_construction(self):
        spec = self._naive_spec().with_overrides(naive_accounting=False)
        entry = evaluate_case(spec, 0)
        assert entry["metrics"]["invariants"]["violations"] == []

    def test_shrinks_to_minimal_replayable_spec(self, tmp_path):
        result = shrink_spec(self._naive_spec())
        minimized = result.spec
        assert result.shrunk
        # f = 2 is the smallest Appendix C construction; everything
        # irrelevant to the violation is gone.
        assert minimized.resolved_f() == 2
        assert minimized.gst == 0.0
        assert minimized.jitter == 0.0
        assert minimized.naive_accounting is True
        assert minimized.script == "appendix_c"
        # the minimized spec is replayable from disk and still fails
        path = tmp_path / "minimal.json"
        save_scenario(minimized, path)
        replayed = load_scenario(path)
        assert spec_fails(replayed)


class TestFuzzCli:
    def test_fuzz_run_smoke(self, tmp_path):
        out = tmp_path / "report.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main([
                "fuzz", "run", "--seeds", "0:3", "--profile", "smoke",
                "--workers", "2", "--out", str(out),
                "--corpus-dir", str(tmp_path / "found"),
            ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["summary"]["cases"] == 3
        assert "unexpected violation" in stdout.getvalue()

    def test_fuzz_run_tampered_baseline_exits_1(self, tmp_path, capsys):
        committed = json.loads((BASELINES_DIR / "fuzz_smoke.json").read_text())
        baseline = {
            "fuzz-smoke-00000": committed["fuzz-smoke-00000"],
            "fuzz-smoke-00001": "0000000000000000",
        }
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        code = cli_main([
            "fuzz", "run", "--seeds", "0:2", "--profile", "smoke",
            "--no-shrink", "--baseline", str(path),
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "baseline: 1 moved" in out
        assert "fuzz-smoke-00001: 0000000000000000 -> " in out

    def test_fuzz_replay_ok_spec(self, tmp_path, capsys):
        spec = ScenarioSpec(
            name="tiny", n=4, protocol="sft-diembft", duration=4.0,
            topology="uniform", uniform_delay=0.01, round_timeout=0.3,
        )
        path = tmp_path / "tiny.json"
        save_scenario(spec, path)
        assert cli_main(["fuzz", "replay", str(path)]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_fuzz_replay_naive_counterexample(self, tmp_path, capsys):
        spec = ScenarioSpec(
            name="naive", script="appendix_c", n=7, naive_accounting=True
        )
        path = tmp_path / "naive.json"
        save_scenario(spec, path)
        # expected counterexample: ok by default, fatal under --strict
        assert cli_main(["fuzz", "replay", str(path)]) == 0
        assert "expected counterexample" in capsys.readouterr().out
        assert cli_main(["fuzz", "replay", str(path), "--strict"]) == 1

    def test_fuzz_replay_invalid_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"n": 4, "jitter": -1.0}))
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["fuzz", "replay", str(path)])
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_fuzz_shrink_cli(self, tmp_path, capsys):
        spec = ScenarioSpec(
            name="naive", script="appendix_c", n=10, naive_accounting=True
        )
        path = tmp_path / "naive.json"
        save_scenario(spec, path)
        out = tmp_path / "min.json"
        assert cli_main([
            "fuzz", "shrink", str(path), "--out", str(out)
        ]) == 0
        minimized = load_scenario(out)
        assert minimized.resolved_f() == 2
        assert minimized.naive_accounting

    def test_fuzz_shrink_rejects_passing_spec(self, tmp_path, capsys):
        spec = ScenarioSpec(name="fine", n=4, duration=4.0, round_timeout=0.3)
        path = tmp_path / "fine.json"
        save_scenario(spec, path)
        assert cli_main(["fuzz", "shrink", str(path)]) == 2
        assert "does not fail" in capsys.readouterr().err
