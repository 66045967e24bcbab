"""Round synchronization for DiemBFT-style protocols.

Implements Figure 2's synchronization rule: advance to round ``r`` on
(a) a QC for a round-``(r-1)`` block, or (b) ``2f + 1`` timeout
messages of round ``r - 1``.  Also implements the timeout machinery:
a per-round timer; on expiry the replica stops voting in the round and
multicasts ⟨timeout, r, qc_high⟩; ``f + 1`` observed timeouts for a
round at least the current one make a replica join the timeout (the
standard Bracha-style echo that guarantees timeout certificates form),
and ``2f + 1`` form a :class:`~repro.types.quorum_cert.TimeoutCertificate`.

Timer durations follow exponential backoff over *consecutive* failed
rounds, capped at :data:`MAX_TIMEOUT`; one successful round resets
the backoff.
"""

from __future__ import annotations

from repro.types.quorum_cert import TimeoutCertificate

#: Cap on one round's backed-off timer, in seconds.
MAX_TIMEOUT = 8.0


class Pacemaker:
    """Tracks the current round and decides when to advance it.

    Timer policy and thresholds come from the owning replica's
    :class:`~repro.protocols.base.ReplicaConfig`: ``round_timeout``
    backed off by ``timeout_multiplier``, ``f + 1`` timeouts to join,
    ``quorum()`` to form a TC.  The owning replica provides two
    callbacks:

    * ``on_new_round(round, reason)`` — invoked after every advance
      (``reason`` is ``"qc"``, ``"tc"`` or ``"start"``);
    * ``on_local_timeout(round)`` — invoked when the round timer fires
      or the replica joins a timeout echo; the replica is responsible
      for multicasting its timeout message.
    """

    def __init__(self, config, context, on_new_round, on_local_timeout):
        self.config = config
        self.context = context
        self.current_round = 0
        self.consecutive_timeouts = 0
        self._timer = None
        self._timed_out_rounds: set[int] = set()
        self._timeout_votes: dict[int, dict] = {}
        self._tcs: dict[int, TimeoutCertificate] = {}
        self._on_new_round = on_new_round
        self._on_local_timeout = on_local_timeout

    # ------------------------------------------------------------------
    # round state
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Enter round 1 (genesis is round 0)."""
        self._enter_round(1, "start")

    def current_timeout(self) -> float:
        duration = self.config.round_timeout * (
            self.config.timeout_multiplier ** self.consecutive_timeouts
        )
        return min(duration, MAX_TIMEOUT)

    def _enter_round(self, round_number: int, reason: str) -> None:
        self.current_round = round_number
        self.context.cancel_timer(self._timer)
        self._timer = self.context.set_timer(
            self.current_timeout(), self._timer_fired, round_number
        )
        self._on_new_round(round_number, reason)

    def advance_on_qc(self, qc_round: int) -> bool:
        """Sync rule (a): a QC of round ``r - 1`` enters round ``r``."""
        target = qc_round + 1
        if target <= self.current_round:
            return False
        self.consecutive_timeouts = 0
        self._enter_round(target, "qc")
        return True

    def advance_on_tc(self, tc: TimeoutCertificate) -> bool:
        """Sync rule (b): a TC of round ``r - 1`` enters round ``r``."""
        target = tc.round + 1
        if target <= self.current_round:
            return False
        self.consecutive_timeouts += 1
        self._enter_round(target, "tc")
        return True

    def has_timed_out(self, round_number: int) -> bool:
        """Whether this replica stopped voting in ``round_number``."""
        return round_number in self._timed_out_rounds

    def restore_timed_out(self, rounds) -> None:
        """Crash-recovery seam: reload the WAL's timed-out rounds so a
        reborn replica keeps refusing to vote in rounds it already
        declared dead before the crash."""
        self._timed_out_rounds.update(rounds)

    # ------------------------------------------------------------------
    # timeouts
    # ------------------------------------------------------------------

    def _timer_fired(self, round_number: int) -> None:
        if round_number != self.current_round:
            return  # stale timer (round already advanced)
        if round_number in self._timed_out_rounds:
            return
        self._timed_out_rounds.add(round_number)
        self._on_local_timeout(round_number)

    def record_timeout_vote(
        self, round_number: int, sender: int, qc_high_round: int
    ) -> TimeoutCertificate | None:
        """Account a received ⟨timeout⟩; returns a TC when one forms.

        Also triggers the join rule: ``f + 1`` distinct timeouts for a
        round ``>=`` the current one make this replica time out too.
        """
        votes = self._timeout_votes.setdefault(round_number, {})
        votes[sender] = max(votes.get(sender, -1), qc_high_round)

        if (
            len(votes) >= self.config.f + 1
            and round_number >= self.current_round
            and round_number not in self._timed_out_rounds
        ):
            self._timed_out_rounds.add(round_number)
            self._on_local_timeout(round_number)

        if len(votes) >= self.config.quorum() and round_number not in self._tcs:
            tc = TimeoutCertificate(
                round=round_number,
                timeout_voters=frozenset(votes),
                highest_qc_round=max(votes.values()),
            )
            self._tcs[round_number] = tc
            return tc
        return None

    def known_tc(self, round_number: int) -> TimeoutCertificate | None:
        return self._tcs.get(round_number)

    def note_tc(self, tc: TimeoutCertificate) -> None:
        """Record a TC learned from a peer (e.g. attached to a proposal)."""
        self._tcs.setdefault(tc.round, tc)
