"""Structured lifecycle tracing, flight recording, and the CLI."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from repro.cli import main as cli_main
from repro.obs import (
    TraceEvent,
    TraceLog,
    breakdown_from_cluster,
    breakdown_from_trace,
)
from tests.conftest import small_experiment


class TestTracing:
    def _traced_run(self, duration=4.0, **overrides):
        config = small_experiment(
            duration=duration, trace_level="spans", **overrides
        )
        cluster = config.build().run()
        return cluster, cluster.trace

    def test_lifecycle_spans_traced(self):
        _, trace = self._traced_run()
        # The full causal chain: proposed → votes_collected → qc_formed
        # → endorsed → committed, plus round entries and votes.
        for kind in ("round", "propose", "vote", "votes_collected",
                     "qc_formed", "qc", "endorse", "commit"):
            assert trace.events(kind=kind), f"no {kind} events"
        for kind in ("round", "vote", "qc", "commit"):
            assert len(trace.events(kind=kind)) > 50

    def test_round_timeline_monotone(self):
        _, trace = self._traced_run()
        entries = trace.events(kind="round", replica_id=0)
        assert len(entries) > 50
        times = [event.time for event in entries]
        rounds = [event.round for event in entries]
        assert times == sorted(times)
        assert rounds == sorted(rounds)

    def test_filters(self):
        _, trace = self._traced_run()
        late = trace.events(kind="commit", since=2.0)
        assert late
        assert all(event.time >= 2.0 for event in late)
        assert all(event.kind == "commit" for event in late)
        one_replica = trace.events(kind="vote", replica_id=3)
        assert one_replica
        assert all(event.replica_id == 3 for event in one_replica)
        assert trace.events(kind="no-such-kind") == []

    def test_spans_carry_block_context(self):
        _, trace = self._traced_run()
        for event in trace.events(kind="commit"):
            assert event.round >= 0
            assert event.height >= 0
            assert event.block
        for event in trace.events(kind="endorse"):
            assert event.value >= 0.0  # the strength level reached

    def test_tracing_does_not_change_behaviour(self):
        traced_cluster, _ = self._traced_run()
        plain_cluster = small_experiment(duration=4.0).build().run()
        assert (
            traced_cluster.simulator.events_processed
            == plain_cluster.simulator.events_processed
        )
        traced_commits = [
            event.block_id
            for event in traced_cluster.replicas[0].commit_tracker.commit_order
        ]
        plain_commits = [
            event.block_id
            for event in plain_cluster.replicas[0].commit_tracker.commit_order
        ]
        assert traced_commits == plain_commits

    def test_trace_level_off_has_no_span_log(self):
        cluster = small_experiment(duration=1.0).build().run()
        assert cluster.trace is None

    def test_full_level_adds_deliveries(self):
        config = small_experiment(duration=2.0, trace_level="full")
        cluster = config.build().run()
        assert len(cluster.trace.events(kind="deliver")) > 100

    def test_capacity_bound(self):
        trace = TraceLog(capacity=10)
        for index in range(25):
            trace.append(TraceEvent(time=float(index), replica_id=0, kind="x"))
        assert len(trace) == 10
        assert trace.dropped == 15
        assert len(trace.events(kind="x")) == 10

    def test_breakdown_matches_cluster_state(self):
        cluster, trace = self._traced_run(
            duration=6.0, workload_rate=200.0, batch_size=64
        )
        from_state = breakdown_from_cluster(cluster.replicas[0])
        from_spans = breakdown_from_trace(trace, 0)
        assert from_state == from_spans
        assert from_state["mempool_wait_s"] is not None
        assert from_state["proposal_to_qc_s"] is not None
        assert from_state["qc_to_commit_s"] is not None


def _spec_file(tmp_path, **overrides) -> str:
    """Save a small scenario for the one-cluster commands; its path."""
    from repro.experiments import ScenarioSpec, save_scenario

    knobs = dict(name="cli_run", n=7, duration=3.0, round_timeout=0.5)
    knobs.update(overrides)
    path = tmp_path / f"{knobs['name']}.json"
    save_scenario(ScenarioSpec(**knobs), path)
    return str(path)


def _amnesia_spec(tmp_path) -> str:
    """Three replicas restart from blank disks: the amnesia
    differential, which deliberately double-votes."""
    from repro.experiments import FaultMix

    return _spec_file(
        tmp_path, name="amnesia_dump", protocol="diembft", n=4,
        duration=8.0, seeds=(11,),
        faults=FaultMix(amnesia=3, recover_at=2.5, downtime=1.0),
    )


class TestCLI:
    def _run_cli(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def test_run_command(self, tmp_path):
        code, out, _ = self._run_cli(["run", _spec_file(tmp_path)])
        assert code == 0
        assert "commits:" in out
        assert "strong commit latency" in out

    def test_run_command_csv(self, tmp_path):
        code, out, _ = self._run_cli(
            ["run", _spec_file(tmp_path), "--csv"]
        )
        assert code == 0
        assert "ratio,level,mean_latency_s" in out

    def test_run_with_crashes(self, tmp_path):
        from repro.experiments import FaultMix

        spec = _spec_file(
            tmp_path, duration=4.0, round_timeout=0.4,
            faults=FaultMix(crash=1),
        )
        code, out, _ = self._run_cli(["run", spec])
        assert code == 0
        assert "commits:" in out

    def test_run_exits_1_on_safety_violation(self, tmp_path):
        # The amnesia differential double-votes; run judges it with the
        # same oracle as campaigns and the fuzzer.
        code, out, _ = self._run_cli(["run", _amnesia_spec(tmp_path)])
        assert code == 1
        assert "double-vote" in out
        assert "commits:" not in out

    def test_run_rejects_scripted_spec(self):
        with pytest.raises(SystemExit) as excinfo:
            self._run_cli(
                ["run", "scenarios/fuzz_corpus/appendix_c_naive.json"]
            )
        assert excinfo.value.code == 2

    def test_counterexample_command(self):
        code, out, _ = self._run_cli(["counterexample", "--f", "2"])
        assert code == 0
        assert "violates Definition 1: True" in out
        assert "safe: True" in out

    def test_health_command(self, tmp_path):
        code, out, _ = self._run_cli(["health", _spec_file(tmp_path)])
        assert code == 0
        assert "max achievable strength" in out

    def test_figure_command(self, tmp_path):
        campaign = tmp_path / "tiny_figure.toml"
        campaign.write_text(
            "\n".join([
                'name = "tiny_figure"',
                "n = 4",
                'topology = "symmetric"',
                "duration = 3.0",
                "round_timeout = 0.5",
                "seeds = [1]",
                "ratios = [1.0, 2.0]",
                "[matrix]",
                "delta = [0.02, 0.05]",
            ])
        )
        code, out, err = self._run_cli(["figure", str(campaign)])
        assert code == 0
        assert "tiny_figure (measured)" in out
        for delta in ("0.02", "0.05"):
            assert f"tiny_figure/delta={delta},seed=1" in out
            assert f"running tiny_figure/delta={delta},seed=1" in err
        assert "x-strong (f)" in out

    def test_figure_command_missing_file(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            self._run_cli(["figure", str(tmp_path / "nope.toml")])
        assert excinfo.value.code == 2

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            self._run_cli(["frobnicate"])


class TestTraceCLI:
    def _run_cli(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def _scenario_file(self, tmp_path):
        from repro.experiments import ScenarioSpec
        from repro.experiments.spec import save_scenario

        spec = ScenarioSpec(
            name="trace_cli_case",
            protocol="sft-diembft",
            n=4,
            topology="uniform",
            uniform_delay=0.01,
            jitter=0.002,
            duration=3.0,
            round_timeout=0.5,
            seeds=(7,),
        )
        path = tmp_path / "trace_cli_case.json"
        save_scenario(spec, path)
        return path

    def test_trace_export_valid_chrome_json(self, tmp_path):
        from repro.obs import validate_chrome_trace

        path = self._scenario_file(tmp_path)
        out_path = tmp_path / "trace.json"
        code, out, _ = self._run_cli(
            ["trace", "export", str(path), "--out", str(out_path)]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert validate_chrome_trace(data) == []
        assert data["otherData"]["latency_breakdown"]["qc_to_commit_s"] > 0
        thread_names = [
            event for event in data["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        ]
        assert len(thread_names) == 4  # one named track per replica

    def test_trace_rejects_scripted_spec(self, tmp_path):
        # Scripted specs have no cluster to trace; clean exit, code 2.
        with pytest.raises(SystemExit) as excinfo:
            self._run_cli(
                ["trace", "export",
                 "scenarios/fuzz_corpus/appendix_c_naive.json"]
            )
        assert excinfo.value.code == 2

    def test_trace_summarize_removed(self, tmp_path):
        # `trace export` is the one trace view; the text summary is gone.
        path = self._scenario_file(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            self._run_cli(["trace", "summarize", str(path)])
        assert excinfo.value.code == 2

    def test_fuzz_replay_committed_corpus_entry(self):
        # The fuzz-smoke CI job replays this corpus entry.
        code, out, _ = self._run_cli(
            ["fuzz", "replay", "scenarios/fuzz_corpus/appendix_c_naive.json"]
        )
        assert code == 0
        assert "expected counterexample" in out

    def test_fuzz_replay_writes_flight_dump(self, tmp_path):
        # The amnesia replay must exit non-zero and dump every replica's
        # flight-recorder ring.  (This used to replay lazy_quorum_stall,
        # but that entry's violation was an oracle applicability gap,
        # since fixed.)
        dump_path = tmp_path / "flight.json"
        code, _, err = self._run_cli(
            ["fuzz", "replay", _amnesia_spec(tmp_path),
             "--flight-out", str(dump_path)]
        )
        assert code == 1  # the replay violates double-vote/prefix
        assert dump_path.exists(), err
        recording = json.loads(dump_path.read_text())
        assert recording["violations"]
        assert recording["replicas"]
        some_replica = next(iter(recording["replicas"].values()))
        assert some_replica["events"]

    def test_campaign_run_writes_flight_dump(self, tmp_path):
        # A campaign job that violates an invariant dumps its replicas'
        # flight-recorder rings under --flight-dir, named by job id.
        flight_dir = tmp_path / "flight"
        code, _, err = self._run_cli(
            ["campaign", "run", _amnesia_spec(tmp_path), "--workers", "1",
             "--flight-dir", str(flight_dir)]
        )
        assert code == 1  # the amnesia job double-votes
        dump_path = flight_dir / "amnesia_dump_seed=11-flight.json"
        assert dump_path.exists(), err
        recording = json.loads(dump_path.read_text())
        assert "double-vote" in {
            violation["invariant"] for violation in recording["violations"]
        }
        assert sorted(recording["replicas"]) == ["0", "1", "2", "3"]
        for ring in recording["replicas"].values():
            assert any(event["kind"] == "vote" for event in ring["events"])
