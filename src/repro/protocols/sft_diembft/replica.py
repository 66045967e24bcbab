"""The SFT-DiemBFT replica (Figure 4, plus the Section 3.4 extension).

Changes relative to plain DiemBFT, exactly the paper's list — all of
them supplied by :class:`~repro.protocols.base.SFTMixin` with the
marker measured in **rounds**:

* **Local state** — per fork, the highest voted block
  (:class:`~repro.core.strong_vote.VotingHistory` maintains the voted
  tips).
* **Strong-vote / strong-QC** — votes carry a ``marker`` (or, in
  generalized mode, the interval set ``I``); QCs therefore aggregate
  strong-votes.
* **Endorsements** — tracked incrementally by
  :class:`~repro.core.endorsement.EndorsementTracker` as strong-QCs
  are learned from proposals, vote aggregation, and timeout messages.
* **Strong commit rule** — the strong 3-chain rule, evaluated by the
  shared :class:`~repro.core.commit_rules.CommitTracker`.

What is left here is the Section 5 light-client support: observer
leaders embed a commit log of strong-commit level updates in their
proposals; see :mod:`repro.lightclient.proofs`.

Block-sync (``sync_enabled``) is inherited from the shared prototype:
synced ancestor chains enter through ``_handle_inserted_blocks``, so
their embedded strong-QCs feed the endorsement tracker exactly as
live-delivered ones do.
"""

from __future__ import annotations

from repro.protocols.base import ReplicaConfig, ReplicaContext, SFTMixin
from repro.protocols.diembft.replica import DiemBFTReplica


class SFTDiemBFTReplica(SFTMixin, DiemBFTReplica):
    """DiemBFT with strong-votes, endorsements, and strong commits."""

    marker_mode = "round"

    def __init__(self, config: ReplicaConfig, context: ReplicaContext) -> None:
        super().__init__(config, context)
        self._commit_log_cursor = 0

    def _proposal_commit_log(self) -> tuple:
        """Strong-commit updates since this replica's last proposal."""
        if self.endorsement is None:
            return ()
        events = self.commit_tracker.strong_events
        entries = tuple(
            (event.block_id.value, event.level)
            for event in events[self._commit_log_cursor:]
        )
        self._commit_log_cursor = len(events)
        return entries
