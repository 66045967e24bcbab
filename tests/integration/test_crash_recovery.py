"""Crash-recovery fault model: durable voting-state WAL, restart and
rejoin, and the amnesia differential.

The load-bearing test of the crash-recovery subsystem is the
differential at the bottom: one crash/restart schedule, run twice.
With ``recover`` the reborn replicas reload their write-ahead voting
record, refuse every round they already voted in, catch up via
block-sync, and the run commits cleanly.  With ``amnesia`` — the same
schedule, restarting from a blank disk — the reborn quorum forgets its
votes, rebuilds a conflicting chain from genesis, and drags the one
honest observer into committing both histories: the oracle reports
double-vote and prefix-consistency violations and ships a
flight-recorder dump.  The WAL is exactly the difference between the
two runs.
"""

import functools

import pytest

from repro.experiments import FaultMix, ScenarioSpec
from repro.fuzz import evaluate_case
from repro.runtime.config import PROTOCOLS
from tests.conftest import double_votes


def recovery_spec(protocol, fault_kind, count=3, **overrides):
    """n=4 schedule crashing ``count`` replicas at 2.5s for 1s."""
    params = dict(
        name=f"crash-recovery-{protocol}-{fault_kind}",
        protocol=protocol,
        n=4,
        duration=8.0,
        seeds=(11,),
        faults=FaultMix(
            **{fault_kind: count, "recover_at": 2.5, "downtime": 1.0}
        ),
    )
    params.update(overrides)
    return ScenarioSpec(**params)


@functools.lru_cache(maxsize=None)
def _replay(protocol, fault_kind):
    spec = recovery_spec(protocol, fault_kind)
    return spec, evaluate_case(spec, spec.seeds[0])


class TestRestartAndRejoin:
    """Every protocol survives a single crash-recovery replica."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_reborn_replica_catches_up(self, protocol):
        spec = recovery_spec(protocol, "recover", count=1)
        cluster = spec.build(spec.seeds[0])
        cluster.run()
        assert cluster.restarts == 1
        assert cluster.amnesia_restarts == 0
        # The victim (highest id under the assignment order) restarted,
        # reloaded its WAL, and rejoined: it commits again after the
        # downtime instead of staying frozen at the crash point.
        victim = cluster.replicas[spec.n - 1]
        assert not victim.crashed
        state = cluster.durable.state_for(victim.replica_id)
        assert state.restores == 1
        assert state.records > 0
        reference = cluster.replicas[0]
        reference_commits = len(reference.commit_tracker.commit_order)
        victim_commits = len(victim.commit_tracker.commit_order)
        assert reference_commits > 0
        assert victim_commits > reference_commits * 0.5, (
            f"victim stuck at {victim_commits}/{reference_commits}"
        )

    @pytest.mark.parametrize("protocol", ("diembft", "sft-diembft"))
    def test_recovery_metrics_present_only_when_scheduled(self, protocol):
        spec, entry = _replay(protocol, "recover")
        recoveries = entry["metrics"]["recoveries"]
        assert recoveries["restarts"] == 3
        assert recoveries["amnesia_restarts"] == 0
        assert recoveries["restores"] == 3
        assert recoveries["records"] > 0
        # Default-off runs carry no recoveries section at all: the
        # committed baseline metric schema is untouched.
        plain = recovery_spec(
            protocol,
            "recover",
            count=0,
            faults=FaultMix(),
            name=f"plain-{protocol}",
        )
        plain_entry = evaluate_case(plain, plain.seeds[0])
        assert "recoveries" not in plain_entry["metrics"]

    @pytest.mark.parametrize("protocol", ("diembft", "sft-diembft"))
    def test_wal_refuses_revotes_after_restart(self, protocol):
        spec = recovery_spec(protocol, "recover")
        cluster = spec.build(spec.seeds[0])
        cluster.run()
        for replica_id in range(spec.n):
            state = cluster.durable.peek(replica_id)
            if state is None:
                continue
            assert double_votes(state) == [], (
                f"replica {replica_id} double-voted despite its WAL"
            )


class TestAmnesiaDifferential:
    """The identical schedule, with and without the durable record."""

    @pytest.mark.parametrize("protocol", ("diembft", "sft-diembft"))
    def test_wal_restore_commits_safely(self, protocol):
        _spec, entry = _replay(protocol, "recover")
        invariants = entry["metrics"]["invariants"]
        assert invariants["ok"], invariants["violations"]
        assert entry["metrics"]["commits"] > 0
        assert "flight_recording" not in entry

    @pytest.mark.parametrize("protocol", ("diembft", "sft-diembft"))
    def test_amnesia_breaks_agreement(self, protocol):
        spec, entry = _replay(protocol, "amnesia")
        invariants = entry["metrics"]["invariants"]
        assert not invariants["ok"]
        kinds = {violation["invariant"] for violation in invariants["violations"]}
        # The reborn blank-disk quorum re-votes rounds its pre-crash
        # incarnation already voted in (double-vote) and certifies a
        # second history the honest observer also commits
        # (prefix-consistency).
        assert "double-vote" in kinds, kinds
        assert "prefix-consistency" in kinds, kinds
        # The safety keys are views of the same oracle pass.
        assert entry["metrics"]["safety_ok"] is False
        assert "safety_error" in entry["metrics"]
        recoveries = entry["metrics"]["recoveries"]
        assert recoveries["amnesia_restarts"] == 3
        assert recoveries["restores"] == 0  # nothing reloaded: disk lost

    @pytest.mark.parametrize("protocol", ("diembft", "sft-diembft"))
    def test_violating_run_ships_flight_recording(self, protocol):
        spec, entry = _replay(protocol, "amnesia")
        recording = entry["flight_recording"]
        assert set(recording["replicas"]) == {str(i) for i in range(spec.n)}
        assert recording["violations"] == (
            entry["metrics"]["invariants"]["violations"]
        )
        for state in recording["replicas"].values():
            assert state["events"]
        # Baselines and fuzz digests compare only entry["metrics"];
        # the dump must never leak into it.
        assert "flight_recording" not in entry["metrics"]

    @pytest.mark.parametrize("protocol", ("diembft", "sft-diembft"))
    def test_oracle_names_the_double_voter(self, protocol):
        _spec, entry = _replay(protocol, "amnesia")
        details = [
            violation["detail"]
            for violation in entry["metrics"]["invariants"]["violations"]
            if violation["invariant"] == "double-vote"
        ]
        assert details
        assert any("durable voting record" in detail for detail in details)
