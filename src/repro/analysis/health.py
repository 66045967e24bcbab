"""Replica health monitoring through strong-QC diversity (Section 5).

The paper observes that "the QC diversity requirement implied by strong
commit is closely aligned with the task of monitoring the health
conditions of the replicas in the system, which can be done via
observing the QCs in the chain and detecting slow replicas."

:class:`QCDiversityMonitor` implements exactly that: it watches the
QCs embedded in committed chain blocks and scores each replica by how
recently and how often its strong-votes make it into certificates.
Replicas that never appear ("outcast replicas", Section 4.1) are the
ones that block high strong-commit levels and should be reconfigured
or replaced.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ReplicaHealth:
    """Participation summary for one replica."""

    replica_id: int
    qc_appearances: int
    appearance_rate: float
    last_seen_round: int | None

    def is_outcast(self) -> bool:
        """Never contributed a vote to any observed QC."""
        return self.qc_appearances == 0


class QCDiversityMonitor:
    """Scores replica participation from observed chain QCs.

    Feed it every QC that lands on the chain (e.g. from one replica's
    committed blocks); query :meth:`report` for per-replica health —
    its outcasts, replicas whose votes never appear, are the ones the
    paper says should be "reconfigured or replaced".
    """

    def __init__(self, n: int, window: int | None = None) -> None:
        if n <= 0:
            raise ValueError("monitor needs at least one replica")
        self.n = n
        self.window = window
        self._appearances = [0] * n
        self._last_seen: list[int | None] = [None] * n
        self._qc_rounds: list[int] = []
        self._recent: list[frozenset] = []

    def observe_qc(self, qc) -> None:
        """Record one chain QC's voter set."""
        voters = qc.voters()
        self._qc_rounds.append(qc.round)
        self._recent.append(frozenset(voters))
        if self.window is not None and len(self._recent) > self.window:
            dropped = self._recent.pop(0)
            self._qc_rounds.pop(0)
            for voter in dropped:
                if 0 <= voter < self.n:
                    self._appearances[voter] -= 1
        for voter in voters:
            if 0 <= voter < self.n:
                self._appearances[voter] += 1
                last = self._last_seen[voter]
                if last is None or qc.round > last:
                    self._last_seen[voter] = qc.round

    def observe_chain(self, store, commit_events) -> int:
        """Convenience: observe the QC of every committed block.

        Returns the number of QCs observed.
        """
        observed = 0
        for event in commit_events:
            qc = store.qc_for(event.block_id)
            if qc is not None and qc.votes:
                self.observe_qc(qc)
                observed += 1
        return observed

    def qc_count(self) -> int:
        return len(self._recent)

    def report(self) -> list:
        """Per-replica :class:`ReplicaHealth`, sorted worst-first."""
        total = max(1, len(self._recent))
        entries = [
            ReplicaHealth(
                replica_id=replica_id,
                qc_appearances=self._appearances[replica_id],
                appearance_rate=self._appearances[replica_id] / total,
                last_seen_round=self._last_seen[replica_id],
            )
            for replica_id in range(self.n)
        ]
        entries.sort(key=lambda health: (health.qc_appearances,
                                         health.replica_id))
        return entries

    def appearance_vector(self) -> list:
        """Dense per-replica appearance rates, indexed by replica id.

        The campaign ``health`` metrics section publishes this vector
        (rounded) so reports expose every replica's QC participation,
        not just the worst offenders of :meth:`report`.
        """
        total = max(1, len(self._recent))
        return [count / total for count in self._appearances]

    def max_achievable_strength(self, f: int) -> int:
        """Upper bound on strong-commit strength given current diversity.

        Only replicas that appear in chain QCs can endorse, so the
        strongest reachable commit is ``participants - f - 1`` (capped
        at ``2f``) — e.g. the paper's 1.7f ceiling when region C's 10
        replicas are outcast.
        """
        participants = sum(
            1 for count in self._appearances if count > 0
        )
        return max(-1, min(participants - f - 1, 2 * f))
