"""Durable voting-state WAL: record/restore semantics and accounting."""

from repro.types.block import make_genesis
from repro.types.wal import DurableDisk, DurableState
from tests.conftest import double_votes


def block_id(tag: int):
    genesis, _ = make_genesis()
    # Distinct deterministic ids without building full blocks.
    return (tag, genesis.id())


class TestDurableState:
    def test_record_vote_tracks_rounds_and_log(self):
        state = DurableState(replica_id=1)
        state.record_vote(3, block_id(0))
        state.record_vote(5, block_id(1))
        assert state.has_voted(3)
        assert state.has_voted(5)
        assert not state.has_voted(4)
        assert state.voted_rounds() == {3, 5}
        assert state.r_vote == 5
        assert state.records == 2

    def test_vote_log_is_append_only_and_detects_conflicts(self):
        state = DurableState(replica_id=0)
        state.record_vote(2, block_id(0))
        state.record_vote(2, block_id(0))  # idempotent re-fsync: same block
        assert double_votes(state) == []
        state.record_vote(2, block_id(1))  # conflicting write
        assert double_votes(state) == [2]
        # The map keeps the latest, the log keeps the evidence.
        assert len(state.vote_log) == 3

    def test_record_lock_and_qc_high_are_monotone(self):
        _, genesis_qc = make_genesis()
        state = DurableState(replica_id=0)
        state.record_lock(4)
        state.record_lock(2)  # regression ignored, not fsync'd
        assert state.r_lock == 4
        writes = state.records
        state.record_lock(2)
        assert state.records == writes
        state.record_qc_high(genesis_qc)
        assert state.qc_high is genesis_qc
        state.record_qc_high(genesis_qc)  # same round: no re-write
        assert state.records == writes + 1

    def test_record_timeout_fsyncs_once_per_round(self):
        state = DurableState(replica_id=2)
        state.record_timeout(7)
        state.record_timeout(7)
        assert state.timed_out_rounds == {7}
        assert state.records == 1

    def test_record_certified_height_is_monotone(self):
        state = DurableState(replica_id=0)
        state.record_certified_height(3)
        state.record_certified_height(2)
        state.record_certified_height(5)
        assert state.certified_height == 5
        assert state.records == 2

    def test_restore_counter(self):
        state = DurableState(replica_id=0)
        assert state.restores == 0
        state.note_restore()
        state.note_restore()
        assert state.restores == 2


class TestDurableDisk:
    def test_state_for_creates_once_and_survives(self):
        disk = DurableDisk()
        first = disk.state_for(3)
        first.record_vote(1, block_id(0))
        again = disk.state_for(3)
        assert again is first  # the "disk" survives the crash
        assert again.has_voted(1)

    def test_peek_does_not_create(self):
        disk = DurableDisk()
        assert disk.peek(0) is None
        disk.state_for(0)
        assert disk.peek(0) is not None

    def test_stats_aggregate_across_replicas(self):
        disk = DurableDisk()
        disk.state_for(0).record_vote(1, block_id(0))
        disk.state_for(1).record_vote(1, block_id(1))
        disk.state_for(1).note_restore()
        assert disk.stats() == {"replicas": 2, "records": 2, "restores": 1}
