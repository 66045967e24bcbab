"""Quorum and timeout certificates.

A quorum certificate (QC) is a set of signed votes for one block from
``n - f = 2f + 1`` distinct replicas (Section 2.1).  In SFT mode the
votes are strong-votes, making the certificate a *strong-QC*
(Figure 4): the embedded markers are exactly the extra information the
endorsement tracker consumes.

A timeout certificate (TC) aggregates ``2f + 1`` timeout messages for
one round and justifies advancing past a leader that made no progress.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import HashDigest
from repro.crypto.registry import KeyRegistry


@dataclass(frozen=True, slots=True)
class QuorumCertificate:
    """Certificate that ``votes`` certify block ``block_id`` at ``round``.

    ``votes`` is a tuple of :class:`~repro.types.vote.Vote` or
    :class:`~repro.types.vote.StrongVote`; a QC whose votes are
    strong-votes is a strong-QC.  QCs are ranked by round (higher round
    ranks higher), per Section 2.1.
    """

    block_id: HashDigest
    round: int
    height: int
    votes: tuple = field(default_factory=tuple)
    _validate_memo: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def voters(self) -> frozenset:
        """The set of distinct replica ids that signed this QC."""
        return frozenset(vote.voter for vote in self.votes)

    def is_genesis(self) -> bool:
        """True for the bootstrap certificate of the genesis block."""
        return self.round == 0

    def validate(self, registry: KeyRegistry, quorum: int) -> bool:
        """Check vote signatures, consistency, and quorum size.

        The genesis certificate is valid by definition.  Every vote must
        name this certificate's block and round, be signed by its
        claimed voter, and the distinct-voter count must reach
        ``quorum``.

        Validation is pure, so the verdict is memoized per certificate
        object: a QC object is shared by reference across the cluster,
        making re-validation by every receiving replica O(1) after
        first sight.  The memo is keyed on the exact ``(registry,
        quorum)`` pair and disabled alongside
        :attr:`KeyRegistry.memoize`.
        """
        if self.is_genesis():
            return True
        if KeyRegistry.memoize:
            memo = self._validate_memo
            if memo is not None and memo[0] is registry and memo[1] == quorum:
                return memo[2]
            result = self._validate_uncached(registry, quorum)
            object.__setattr__(self, "_validate_memo", (registry, quorum, result))
            return result
        return self._validate_uncached(registry, quorum)

    def _validate_uncached(self, registry: KeyRegistry, quorum: int) -> bool:
        block_id = self.block_id
        round_number = self.round
        for vote in self.votes:
            if vote.block_id != block_id or vote.block_round != round_number:
                return False
        return registry.verify_qc_votes(self.votes, quorum)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QC(round={self.round}, block={self.block_id.short()}, "
            f"|votes|={len(self.votes)})"
        )


@dataclass(frozen=True, slots=True)
class TimeoutCertificate:
    """Certificate that ``2f + 1`` replicas timed out of ``round``.

    ``highest_qc_round`` records the best QC round seen among the
    timeout messages; the next leader must propose extending a QC at
    least that high for honest replicas to vote.
    """

    round: int
    timeout_voters: frozenset
    highest_qc_round: int

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TC(round={self.round}, |voters|={len(self.timeout_voters)}, "
            f"hqc={self.highest_qc_round})"
        )
