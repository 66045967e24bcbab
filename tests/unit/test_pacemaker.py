"""Pacemaker: round sync rule, timeouts, backoff, TCs."""

from repro.net.simulator import Simulator
from repro.protocols.base import ReplicaConfig
from repro.protocols.pacemaker import MAX_TIMEOUT, Pacemaker


class Harness:
    """Hosts a pacemaker over a bare simulator (TCs at ``2f + 1``
    timeouts, the join rule at ``f + 1``)."""

    def __init__(self, base_timeout=1.0, multiplier=2.0, f=1):
        self.simulator = Simulator()
        self.rounds = []
        self.local_timeouts = []
        self.pacemaker = Pacemaker(
            ReplicaConfig(
                n=3 * f + 1,
                f=f,
                round_timeout=base_timeout,
                timeout_multiplier=multiplier,
            ),
            self,
            on_new_round=lambda r, reason: self.rounds.append((r, reason)),
            on_local_timeout=self.local_timeouts.append,
        )

    # ReplicaContext-compatible surface used by Pacemaker.
    @property
    def now(self):
        return self.simulator.now

    def set_timer(self, delay, callback, *args):
        return self.simulator.schedule_in(delay, callback, *args)

    def cancel_timer(self, handle):
        if handle is not None:
            handle.cancel()


class TestRoundAdvancement:
    def test_start_enters_round_one(self):
        harness = Harness()
        harness.pacemaker.start()
        assert harness.pacemaker.current_round == 1
        assert harness.rounds == [(1, "start")]

    def test_qc_advances_to_next_round(self):
        harness = Harness()
        harness.pacemaker.start()
        assert harness.pacemaker.advance_on_qc(1)
        assert harness.pacemaker.current_round == 2

    def test_stale_qc_does_not_advance(self):
        harness = Harness()
        harness.pacemaker.start()
        harness.pacemaker.advance_on_qc(5)
        assert not harness.pacemaker.advance_on_qc(3)
        assert harness.pacemaker.current_round == 6

    def test_qc_can_skip_rounds(self):
        harness = Harness()
        harness.pacemaker.start()
        harness.pacemaker.advance_on_qc(10)
        assert harness.pacemaker.current_round == 11


class TestTimeouts:
    def test_timer_fires_local_timeout(self):
        harness = Harness(base_timeout=1.0)
        harness.pacemaker.start()
        harness.simulator.run_until(1.5)
        assert harness.local_timeouts == [1]
        assert harness.pacemaker.has_timed_out(1)

    def test_advance_cancels_timer(self):
        harness = Harness(base_timeout=1.0)
        harness.pacemaker.start()
        harness.pacemaker.advance_on_qc(1)  # leaves round 1 at t=0
        harness.simulator.run_until(1.5)
        # Round 1's timer was cancelled; only round 2's fresh timer fires.
        assert harness.local_timeouts == [2]
        assert not harness.pacemaker.has_timed_out(1)

    def test_tc_forms_at_quorum(self):
        harness = Harness(f=1)
        harness.pacemaker.start()
        assert harness.pacemaker.record_timeout_vote(1, sender=0, qc_high_round=0) is None
        assert harness.pacemaker.record_timeout_vote(1, sender=1, qc_high_round=0) is None
        tc = harness.pacemaker.record_timeout_vote(1, sender=2, qc_high_round=0)
        assert tc is not None
        assert tc.round == 1
        assert tc.timeout_voters == frozenset({0, 1, 2})

    def test_tc_highest_qc_round_aggregated(self):
        harness = Harness(f=1)
        harness.pacemaker.start()
        harness.pacemaker.record_timeout_vote(1, sender=0, qc_high_round=3)
        harness.pacemaker.record_timeout_vote(1, sender=1, qc_high_round=7)
        tc = harness.pacemaker.record_timeout_vote(1, sender=2, qc_high_round=5)
        assert tc.highest_qc_round == 7

    def test_duplicate_timeout_votes_ignored(self):
        harness = Harness(f=1)
        harness.pacemaker.start()
        harness.pacemaker.record_timeout_vote(1, sender=0, qc_high_round=0)
        harness.pacemaker.record_timeout_vote(1, sender=1, qc_high_round=0)
        assert (
            harness.pacemaker.record_timeout_vote(1, sender=0, qc_high_round=0)
            is None
        )

    def test_join_rule_at_f_plus_one(self):
        harness = Harness(f=1)
        harness.pacemaker.start()
        harness.pacemaker.record_timeout_vote(1, sender=0, qc_high_round=0)
        assert harness.local_timeouts == []
        harness.pacemaker.record_timeout_vote(1, sender=1, qc_high_round=0)
        assert harness.local_timeouts == [1]  # joined the timeout

    def test_tc_quorum_follows_f(self):
        harness = Harness(f=2)
        harness.pacemaker.start()
        for sender in range(4):
            assert harness.pacemaker.record_timeout_vote(
                1, sender=sender, qc_high_round=0
            ) is None
        tc = harness.pacemaker.record_timeout_vote(1, sender=4, qc_high_round=0)
        assert tc.timeout_voters == frozenset(range(5))

    def test_join_threshold_follows_f(self):
        harness = Harness(f=2)
        harness.pacemaker.start()
        for sender in range(2):
            harness.pacemaker.record_timeout_vote(
                1, sender=sender, qc_high_round=0
            )
        assert harness.local_timeouts == []
        harness.pacemaker.record_timeout_vote(1, sender=2, qc_high_round=0)
        assert harness.local_timeouts == [1]

    def test_join_rule_ignores_old_rounds(self):
        harness = Harness(f=1)
        harness.pacemaker.start()
        harness.pacemaker.advance_on_qc(5)
        harness.pacemaker.record_timeout_vote(2, sender=0, qc_high_round=0)
        harness.pacemaker.record_timeout_vote(2, sender=1, qc_high_round=0)
        assert harness.local_timeouts == []

    def test_tc_advances_round(self):
        harness = Harness(f=1)
        harness.pacemaker.start()
        tc = None
        for sender in range(3):
            tc = harness.pacemaker.record_timeout_vote(
                1, sender=sender, qc_high_round=0
            ) or tc
        assert harness.pacemaker.advance_on_tc(tc)
        assert harness.pacemaker.current_round == 2


class TestBackoff:
    def test_backoff_grows_with_consecutive_tcs(self):
        harness = Harness(base_timeout=1.0, multiplier=2.0, f=0)
        harness.pacemaker.start()
        assert harness.pacemaker.current_timeout() == 1.0
        tc = harness.pacemaker.record_timeout_vote(1, sender=0, qc_high_round=0)
        harness.pacemaker.advance_on_tc(tc)
        assert harness.pacemaker.current_timeout() == 2.0
        tc = harness.pacemaker.record_timeout_vote(2, sender=0, qc_high_round=0)
        harness.pacemaker.advance_on_tc(tc)
        assert harness.pacemaker.current_timeout() == 4.0

    def test_qc_resets_backoff(self):
        harness = Harness(base_timeout=1.0, multiplier=2.0, f=0)
        harness.pacemaker.start()
        tc = harness.pacemaker.record_timeout_vote(1, sender=0, qc_high_round=0)
        harness.pacemaker.advance_on_tc(tc)
        harness.pacemaker.advance_on_qc(harness.pacemaker.current_round)
        assert harness.pacemaker.current_timeout() == 1.0

    def test_backoff_capped(self):
        harness = Harness(base_timeout=1.0, multiplier=10.0, f=0)
        harness.pacemaker.start()
        tc = harness.pacemaker.record_timeout_vote(1, sender=0, qc_high_round=0)
        harness.pacemaker.advance_on_tc(tc)
        assert MAX_TIMEOUT < 10.0
        assert harness.pacemaker.current_timeout() == MAX_TIMEOUT


class TestTCBookkeeping:
    def test_note_tc_remembered(self):
        harness = Harness()
        harness.pacemaker.start()
        from repro.types.quorum_cert import TimeoutCertificate

        tc = TimeoutCertificate(
            round=4, timeout_voters=frozenset({0, 1, 2}), highest_qc_round=3
        )
        harness.pacemaker.note_tc(tc)
        assert harness.pacemaker.known_tc(4) is tc
        assert harness.pacemaker.known_tc(5) is None
