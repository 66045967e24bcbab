"""Vote messages: plain DiemBFT votes and SFT strong-votes.

A *strong-vote* (Figure 4) is a vote that additionally carries either a
``marker`` — the largest round (DiemBFT) or height (Streamlet) of any
*conflicting* block this replica ever voted for — or, in the
generalized Section 3.4 form, an explicit set of round intervals the
vote endorses.  Plain votes are the degenerate case used by the
baseline protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import HashDigest
from repro.crypto.serialization import canonical_bytes
from repro.crypto.signatures import Signature


@dataclass(frozen=True, slots=True)
class Vote:
    """A signed vote for one block in one round.

    ``block_id``/``block_round`` identify the voted block; ``height``
    is carried for the height-based Streamlet rules.  The signature
    covers every semantic field.
    """

    block_id: HashDigest
    block_round: int
    height: int
    voter: int
    signature: Signature | None = None
    _cached_payload: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # Plain votes carry no interval set; exposing the empty tuple as a
    # class attribute lets hot paths (wire sizing, endorsement
    # ingestion) read ``vote.intervals`` without a getattr probe.
    intervals = ()

    def signing_payload(self) -> bytes:
        """Bytes covered by the vote signature (computed once, cached)."""
        cached = self._cached_payload
        if cached is not None:
            return cached
        payload = canonical_bytes(
            "vote", self.block_id.value, self.block_round, self.height, self.voter
        )
        object.__setattr__(self, "_cached_payload", payload)
        return payload

    def conflicts_marker(self) -> int:
        """Marker accessor; plain votes behave like marker ``0``.

        Allows code that consumes strong-votes to accept plain votes
        uniformly (a plain vote from an honest replica that never forked
        has marker 0).
        """
        return 0


@dataclass(frozen=True, slots=True)
class StrongVote:
    """A strong-vote ⟨vote, B, r, marker⟩ (Figure 4 / Figure 11).

    ``marker`` is the round-based marker for SFT-DiemBFT or the
    height-based marker for SFT-Streamlet, as produced by
    :mod:`repro.core.strong_vote`.  ``intervals`` optionally carries the
    generalized endorsed-round intervals of Section 3.4 as a tuple of
    ``(lo, hi)`` pairs (inclusive); when present it takes precedence
    over the marker for endorsement checks.
    """

    block_id: HashDigest
    block_round: int
    height: int
    voter: int
    marker: int = 0
    intervals: tuple = ()
    signature: Signature | None = None
    _cached_payload: bytes | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def signing_payload(self) -> bytes:
        """Bytes covered by the strong-vote signature (cached).

        A vote object is shared by reference across every replica of a
        simulated cluster, so the canonical encoding — recomputed on
        every sign *and* every verify before — is now paid once per
        process.
        """
        cached = self._cached_payload
        if cached is not None:
            return cached
        payload = canonical_bytes(
            "strong-vote",
            self.block_id.value,
            self.block_round,
            self.height,
            self.voter,
            self.marker,
            tuple(self.intervals),
        )
        object.__setattr__(self, "_cached_payload", payload)
        return payload

    def conflicts_marker(self) -> int:
        return self.marker
