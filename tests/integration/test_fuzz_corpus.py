"""Regression corpus: known-interesting minimized fuzz schedules.

Every spec in ``scenarios/fuzz_corpus/`` replays deterministically and
holds all oracle invariants (the Appendix-C entry's Definition-1
violation is a deliberate, *expected* counterexample — the reason the
spec exists).  These are the fuzzer's keepers: each one documents a
schedule that taught us something.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.analysis.invariants import liveness_applicable
from repro.experiments import load_scenario
from repro.fuzz import evaluate_case

CORPUS_DIR = Path(__file__).resolve().parents[2] / "scenarios" / "fuzz_corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


@functools.lru_cache(maxsize=None)
def _replay(path):
    spec = load_scenario(path)
    return spec, evaluate_case(spec, spec.seeds[0])


class TestCorpusReplay:
    def test_corpus_is_populated(self):
        assert 3 <= len(CORPUS) <= 12

    @pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
    def test_all_invariants_hold(self, path):
        spec, entry = _replay(path)
        invariants = entry["metrics"]["invariants"]
        assert invariants["ok"], invariants["violations"]
        for violation in invariants["violations"]:
            assert violation["expected"], violation

    def test_replay_is_deterministic(self):
        # One fresh re-run against the cached replay (cheapest cluster
        # spec keeps this fast; full determinism is covered in
        # test_fuzz_engine).
        path = CORPUS_DIR / "withhold_outcast.json"
        _spec, cached = _replay(path)
        spec = load_scenario(path)
        fresh = evaluate_case(spec, spec.seeds[0])
        assert json.dumps(cached["metrics"], sort_keys=True) == json.dumps(
            fresh["metrics"], sort_keys=True
        )


class TestLazyQuorumStallEntry:
    """A closed oracle find: lazy voters versus resolved pacing.

    Two lazy voters at n=4 leave no reachable quorum under the actual
    ~0.02s uniform-topology round pacing, so the schedule never
    promised liveness.  The oracle originally judged it live anyway —
    its lazy threshold compared against the max-over-topology-knobs
    pacing (~0.2s via the unused ``delta`` default) — and fired a false
    post-GST-liveness violation.  ``liveness_applicable`` now derives
    pacing from the *resolved* topology, closing the find; the entry
    stays in the corpus to pin the applicability analysis.
    """

    def test_oracle_judges_schedule_inapplicable(self):
        spec, entry = _replay(CORPUS_DIR / "lazy_quorum_stall.json")
        assert not liveness_applicable(spec)
        assert entry["metrics"]["commits"] == 0  # quorum never reachable
        assert entry["metrics"]["invariants"]["ok"]
        # A clean replay ships no flight-recorder dump.
        assert "flight_recording" not in entry

    def test_fast_voters_restore_liveness(self):
        # The differential: the same schedule with the stragglers'
        # delay well inside the slot keeps a reachable quorum, the
        # oracle judges it live, and commits flow.
        spec = load_scenario(CORPUS_DIR / "lazy_quorum_stall.json")
        prompt = spec.with_overrides(**{"faults.lazy_delay": 0.001})
        assert liveness_applicable(prompt)
        entry = evaluate_case(prompt, prompt.seeds[0])
        assert entry["metrics"]["commits"] > 0
        assert entry["metrics"]["invariants"]["ok"]


class TestAppendixCEntry:
    """The Appendix-C-shaped corpus entry, generated by the fuzzer."""

    def test_naive_accounting_flagged_as_definition_1(self):
        _spec, entry = _replay(CORPUS_DIR / "appendix_c_naive.json")
        violations = entry["metrics"]["invariants"]["violations"]
        assert len(violations) == 1
        assert violations[0]["invariant"] == "definition-1"
        assert violations[0]["expected"] is True

    def test_sft_accounting_repairs_the_same_schedule(self):
        spec = load_scenario(CORPUS_DIR / "appendix_c_naive.json")
        sound = spec.with_overrides(naive_accounting=False)
        entry = evaluate_case(sound, sound.seeds[0])
        assert entry["metrics"]["invariants"]["violations"] == []


class TestStarvationEntries:
    """Fuzzer-found liveness pathologies, now differential tests.

    Both corpus specs pin ``sync_enabled: false`` to preserve the
    schedules exactly as the fuzzer found them (no block-sync path
    existed); replaying them with sync enabled demonstrates the
    catch-up subsystem closing both finds.
    """

    def test_rotation_starvation_grows_chain_without_commits(self):
        # n=4 + one crash: no 4-slot correct leader window exists in
        # the round-robin rotation, so no 3-chain ever completes.
        spec, entry = _replay(CORPUS_DIR / "rotation_starvation.json")
        assert spec.sync_enabled is False
        assert entry["metrics"]["commits"] == 0
        assert entry["metrics"]["safety_ok"]
        assert entry["metrics"]["invariants"]["ok"]

    def test_rotation_starvation_commits_with_sync(self):
        # With sync on, votes attached to timeout messages recover the
        # QCs the crashed aggregator lost: every correct replica
        # commits and the (now applicable) liveness invariant passes.
        spec = load_scenario(CORPUS_DIR / "rotation_starvation.json")
        synced = spec.with_overrides(sync_enabled=True)
        assert liveness_applicable(synced)
        entry = evaluate_case(synced, synced.seeds[0])
        assert entry["metrics"]["commits"] > 0
        assert entry["metrics"]["invariants"]["ok"]
        cluster = synced.build().run()
        for replica in cluster.correct_replicas():
            assert replica.commit_tracker.commit_order, replica.replica_id

    def test_withhold_outcast_starves_one_replica_only(self):
        # A withholding leader reaching a bare quorum permanently
        # starves the replica it skips; the system itself stays live.
        spec, entry = _replay(CORPUS_DIR / "withhold_outcast.json")
        assert spec.sync_enabled is False
        assert entry["metrics"]["commits"] > 0
        cluster = spec.build().run()
        commit_counts = {
            replica.replica_id: len(replica.commit_tracker.commit_order)
            for replica in cluster.replicas
        }
        starved = [rid for rid, count in commit_counts.items() if count == 0]
        assert starved, f"expected a starved replica, got {commit_counts}"

    def test_withhold_outcast_recovers_with_sync(self):
        # With sync on the skipped replica fetches the withheld blocks
        # from peers and commits alongside everyone else.
        spec = load_scenario(CORPUS_DIR / "withhold_outcast.json")
        synced = spec.with_overrides(sync_enabled=True)
        assert liveness_applicable(synced)
        entry = evaluate_case(synced, synced.seeds[0])
        assert entry["metrics"]["invariants"]["ok"]
        assert entry["metrics"]["sync"]["blocks_synced"] > 0
        cluster = synced.build().run()
        for replica in cluster.correct_replicas():
            assert replica.commit_tracker.commit_order, replica.replica_id

    def test_linear_collector_crash_stalls_commits(self):
        # Streamlet under linear vote collection: round r's votes
        # fan in to the leader of r+1.  With n=4 and replica 3 crashed,
        # a round certifies only when neither its leader nor its
        # collector is the victim (r % 4 in {0, 1}) — never three
        # consecutive rounds, so commits stop dead at the crash while
        # the chain keeps growing.  The oracle knows: the liveness
        # window under streamlet+linear is four consecutive correct
        # slots, which this rotation lacks, so the run stays
        # invariant-clean rather than a false liveness failure.
        spec, entry = _replay(CORPUS_DIR / "linear_collector_crash.json")
        assert spec.linear_votes is True
        assert not liveness_applicable(spec)
        assert entry["metrics"]["commits"] > 0  # pre-crash commits only
        assert entry["metrics"]["invariants"]["ok"]
        cluster = spec.build().run()
        reference = cluster.correct_replicas()[0]
        committed_rounds = [
            reference.store.maybe_get(event.block_id).round
            for event in reference.commit_tracker.commit_order
        ]
        assert max(committed_rounds) < reference.current_round / 2

    def test_linear_collector_crash_commits_with_broadcast_votes(self):
        # Same schedule with linear collection off: votes broadcast, so
        # only the victim's own leader slot is wasted (r % 4 in
        # {0, 1, 2} certify — three consecutive) and commits continue
        # through the whole run.
        spec = load_scenario(CORPUS_DIR / "linear_collector_crash.json")
        broadcast = spec.with_overrides(linear_votes=False)
        assert liveness_applicable(broadcast)
        entry = evaluate_case(broadcast, broadcast.seeds[0])
        assert entry["metrics"]["invariants"]["ok"]
        _spec, linear_entry = _replay(CORPUS_DIR / "linear_collector_crash.json")
        assert entry["metrics"]["commits"] > 2 * linear_entry["metrics"]["commits"]

    def test_snapshot_join_lagged_replica_installs_a_snapshot(self):
        # Fuzzer-sampled checkpoint axis (seed 38 of the smoke
        # profile): a replica partitioned away past the checkpoint
        # horizon rejoins via state transfer instead of full replay,
        # and truncation keeps every replica's store bounded.
        spec, entry = _replay(CORPUS_DIR / "snapshot_join_lag.json")
        assert spec.checkpoint_interval > 0
        section = entry["metrics"]["checkpoint"]
        assert section["snapshots_installed"] >= 1
        assert section["invalid_snapshots"] == 0
        assert section["blocks_truncated"] > 0
        assert entry["metrics"]["invariants"]["ok"]

    def test_snapshot_join_schedule_stays_clean_without_checkpointing(self):
        # The differential: the schedule is invariant-clean either way;
        # checkpointing changes only the memory profile.
        spec = load_scenario(CORPUS_DIR / "snapshot_join_lag.json")
        plain = spec.with_overrides(checkpoint_interval=0)
        entry = evaluate_case(plain, plain.seeds[0])
        assert entry["metrics"]["invariants"]["ok"]
        assert entry["metrics"]["checkpoint"]["enabled"] is False
        _spec, ckpt = _replay(CORPUS_DIR / "snapshot_join_lag.json")
        assert (
            ckpt["metrics"]["checkpoint"]["peak_live_blocks"]
            < entry["metrics"]["checkpoint"]["peak_live_blocks"]
        )

    def test_starvation_replays_stay_byte_identical_without_sync(self):
        # The determinism differential the corpus relies on: sync off
        # reproduces the original finds byte-for-byte, run after run.
        for name in ("rotation_starvation", "withhold_outcast"):
            spec, cached = _replay(CORPUS_DIR / f"{name}.json")
            fresh = evaluate_case(spec, spec.seeds[0])
            assert json.dumps(cached["metrics"], sort_keys=True) == json.dumps(
                fresh["metrics"], sort_keys=True
            ), name


class TestReorderSlotOverrunEntry:
    """Fuzzer find on the at-least-once delivery axis (default
    profile, seed 16, shrunk): Streamlet's lock-step slot budgets
    exactly one proposal hop plus one vote hop at worst-case delay,
    and a replica refuses any proposal arriving outside its slot — so
    a reorder window exceeding the slot's slack stalls the chain at
    zero commits with *no Byzantine faults at all*.  The liveness
    oracle accounts for the inflated round trip and judges such
    schedules inapplicable rather than violated: the synchrony
    assumption, not the protocol, is what broke.
    """

    def test_reordering_beyond_slot_slack_stalls_streamlet(self):
        spec, entry = _replay(CORPUS_DIR / "reorder_slot_overrun.json")
        assert spec.reorder_window > 0
        assert spec.faults.total() == 0  # no Byzantine faults at play
        assert not liveness_applicable(spec)
        assert entry["metrics"]["commits"] == 0
        assert entry["metrics"]["invariants"]["ok"]

    def test_exactly_once_delivery_restores_liveness(self):
        # The differential: the identical schedule without the reorder
        # window is live — the oracle applies and commits flow.
        spec = load_scenario(CORPUS_DIR / "reorder_slot_overrun.json")
        ordered = spec.with_overrides(reorder_window=0.0)
        assert liveness_applicable(ordered)
        entry = evaluate_case(ordered, ordered.seeds[0])
        assert entry["metrics"]["commits"] > 0
        assert entry["metrics"]["invariants"]["ok"]
        # Exactly-once runs carry no duplication counter at all: the
        # committed metrics schema is untouched while the knob is off.
        assert "duplicated" not in entry["metrics"]["messages"]

    def test_duplication_alone_does_not_stall(self):
        # Duplicates are absorbed by idempotent handlers; only the
        # delay component of at-least-once delivery threatens
        # lock-step pacing.
        spec = load_scenario(CORPUS_DIR / "reorder_slot_overrun.json")
        noisy = spec.with_overrides(reorder_window=0.0, duplicate_rate=0.3)
        assert liveness_applicable(noisy)
        entry = evaluate_case(noisy, noisy.seeds[0])
        assert entry["metrics"]["commits"] > 0
        assert entry["metrics"]["invariants"]["ok"]
        assert entry["metrics"]["messages"]["duplicated"] > 0
