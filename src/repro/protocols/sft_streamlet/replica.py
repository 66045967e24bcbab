"""The SFT-Streamlet replica (Figure 11).

:class:`~repro.protocols.base.SFTMixin` over Streamlet, with the
differences from SFT-DiemBFT that Appendix D lists:

* the marker records the largest **height** (not round) of any voted
  conflicting block;
* endorsement is parameterized: a strong-vote for ``B'``
  *k-endorses* ``B`` iff ``B = B'`` or (``B'`` extends ``B`` and
  ``marker < k``);
* the strong commit rule ``x``-strong commits the height-``k`` middle
  block of a consecutive-round 3-chain when all three blocks have at
  least ``x + f + 1`` ``k``-endorsers.

Because every replica observes every vote (all-to-all + echo),
observers feed raw strong-votes into the endorsement tracker as they
arrive, and strong-commit strength is re-evaluated after each vote and
each local QC ingestion (``k``-endorser counts have no fixed threshold
to listen on) — the only code left in this file.

Appendix D.4's observation — reverting an SFT-Streamlet strong commit
requires the adversary to *sustain* corruption for about ``h`` rounds
to regrow a competitive certified chain, versus a single round in
SFT-DiemBFT — is exercised by benchmark E8 and the adversarial tests.

Block-sync (``sync_enabled``) is inherited from the shared prototype;
synced blocks re-enter ``_handle_inserted_blocks`` so their embedded
strong-QCs reach the endorsement tracker like live ones.
"""

from __future__ import annotations

from repro.protocols.base import SFTMixin
from repro.protocols.streamlet.replica import StreamletReplica
from repro.types.quorum_cert import QuorumCertificate


class SFTStreamletReplica(SFTMixin, StreamletReplica):
    """Streamlet with height-marker strong-votes and k-endorsements."""

    marker_mode = "height"

    def _aggregate_vote(self, vote) -> None:
        if self.endorsement is not None:
            self.endorsement.add_vote(vote, self.context.now)
            # k-endorser counts changed; re-check registered 3-chains.
            self.commit_tracker.evaluate_strong_commits(self.context.now)
        super()._aggregate_vote(vote)

    def _on_new_certification(self, qc: QuorumCertificate, now: float) -> None:
        super()._on_new_certification(qc, now)
        if self.endorsement is not None:
            self.commit_tracker.evaluate_strong_commits(now)
