"""Durable voting-state write-ahead records for crash recovery.

Real BFT deployments survive crash–recovery only because the voting
record is persisted *before* any vote leaves the replica: a reborn
replica that forgot which rounds it voted in can be made to double-vote,
which is indistinguishable from equivocation and breaks safety (PBFT
makes the same argument for its message log).  This module provides the
simulated equivalent: an in-memory "disk" keyed by replica id that
survives :meth:`~repro.protocols.base.BaseReplica.crash` and is handed
back to the replacement instance built by
:meth:`~repro.runtime.cluster.Cluster.restart_replica`.

``DurableState`` holds exactly the safety-critical subset of replica
state — last vote per round, ``r_vote``/``r_lock``, ``qc_high``,
timed-out rounds (timeout votes), and the strong-vote history tips that
endorsement markers are computed from.  Everything else (block store,
pending QCs, message dedup caches) is volatile by design and is rebuilt
through the PR 7 snapshot + block-sync rejoin path.

Every ``record_*`` call models an fsync: replicas invoke it *before*
the corresponding message is sent, and the ``records`` counter lets the
metrics layer report how many synchronous writes the protocol paid for.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class DurableState:
    """Per-replica write-ahead record surviving simulated crashes.

    ``votes`` maps round → block id voted for in that round (at most
    one entry per round for a correct replica — the append-only
    ``vote_log`` keeps every write so tests can assert exactly that).
    ``voted_tips`` persists the strong-vote history as
    ``(block_id, key)`` pairs, where ``key`` is the marker-relevant
    chain key of the tip at fsync time (see
    :meth:`repro.core.strong_vote.VotingHistory.tip_keys`).
    """

    replica_id: int
    votes: dict = field(default_factory=dict)  # round -> BlockId
    vote_log: list = field(default_factory=list)  # append-only (round, BlockId)
    r_vote: int = 0
    r_lock: int = 0
    qc_high = None
    last_vote = None
    timed_out_rounds: set = field(default_factory=set)
    voted_tips: tuple = ()
    highest_voted_round: int = 0
    certified_height: int = 0  # Streamlet's lock analog (see below)
    records: int = 0  # fsync'd writes
    restores: int = 0  # times a reborn replica reloaded this record

    # -- write path (each call models one fsync) -----------------------

    def record_vote(self, round_number: int, block_id, vote=None) -> None:
        self.votes[round_number] = block_id
        self.vote_log.append((round_number, block_id))
        if round_number > self.r_vote:
            self.r_vote = round_number
        if vote is not None:
            self.last_vote = vote
        self.records += 1

    def record_lock(self, r_lock: int) -> None:
        if r_lock > self.r_lock:
            self.r_lock = r_lock
            self.records += 1

    def record_qc_high(self, qc) -> None:
        if self.qc_high is None or qc.round > self.qc_high.round:
            self.qc_high = qc
            self.records += 1

    def record_timeout(self, round_number: int) -> None:
        if round_number not in self.timed_out_rounds:
            self.timed_out_rounds.add(round_number)
            self.records += 1

    def record_certified_height(self, height: int) -> None:
        """Persist the longest certified chain height (Streamlet).

        Streamlet's safety argument leans on the longest-chain voting
        rule the way DiemBFT's leans on ``r_lock``: a replica must
        never vote for a block extending a chain *shorter* than the
        longest certified chain it has seen.  The block store is
        volatile, so a reborn replica's local longest chain is genesis
        — this height is the durable floor it holds the rule to until
        block-sync catches its store up.
        """
        if height > self.certified_height:
            self.certified_height = height
            self.records += 1

    def record_tips(self, tips: tuple, highest_voted_round: int) -> None:
        self.voted_tips = tuple(tips)
        if highest_voted_round > self.highest_voted_round:
            self.highest_voted_round = highest_voted_round
        self.records += 1

    # -- read path -----------------------------------------------------

    def has_voted(self, round_number: int) -> bool:
        return round_number in self.votes

    def voted_rounds(self) -> set:
        return set(self.votes)

    def note_restore(self) -> None:
        self.restores += 1


class DurableDisk:
    """The simulated stable storage: one :class:`DurableState` per id.

    Created by the cluster only when a recovery schedule is present, so
    default-off runs perform zero WAL work and replay byte-identically.
    """

    def __init__(self):
        self._states: dict = {}

    def state_for(self, replica_id: int) -> DurableState:
        state = self._states.get(replica_id)
        if state is None:
            state = DurableState(replica_id)
            self._states[replica_id] = state
        return state

    def peek(self, replica_id: int):
        """The record for ``replica_id`` if one exists, else ``None``."""
        return self._states.get(replica_id)

    def stats(self) -> dict:
        return {
            "replicas": len(self._states),
            "records": sum(s.records for s in self._states.values()),
            "restores": sum(s.restores for s in self._states.values()),
        }
