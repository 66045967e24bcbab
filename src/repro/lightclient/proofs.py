"""Proving strong commits to light clients (Section 5).

A light client (wallet app, bridge, …) holds only the replica set's
public keys — no blockchain.  To prove that a block reached strength
``x``, the protocol includes a *commit log* in every block proposal:
the strong-commit level updates implied by the strong-QC embedded in
that proposal.  Once the proposal is certified (``2f + 1`` votes), at
least one honest replica vouches for each log entry as long as the
number of faults does not exceed ``2f`` — the maximum resilience SFT
provides — so the certified log alone convinces the client.

In this implementation the commit log lives inside
:attr:`~repro.types.block.Block.commit_log` (covered by the block
hash, hence by every vote signature), and a
:class:`StrongCommitProof` is simply that block plus its QC.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.registry import KeyRegistry
from repro.types.block import Block
from repro.types.quorum_cert import QuorumCertificate


class ProofError(Exception):
    """Raised when a strong-commit proof fails verification."""


@dataclass(frozen=True, slots=True)
class StrongCommitProof:
    """A certified block whose commit log carries level updates."""

    block: Block
    qc: QuorumCertificate


def build_proof(store, block_id) -> StrongCommitProof | None:
    """Assemble a proof from a replica's block store, if possible."""
    block = store.maybe_get(block_id)
    if block is None or not block.commit_log:
        return None
    qc = store.qc_for(block_id)
    if qc is None:
        return None
    return StrongCommitProof(block=block, qc=qc)


class LightClient:
    """Verifies strong-commit proofs against the replica PKI.

    Keeps the highest proven strength per block so applications can ask
    "is my block at least ``x``-strong yet?" — the client-side analogue
    of Nakamoto's k-deep rule (Section 1).
    """

    def __init__(self, registry: KeyRegistry, n: int, f: int) -> None:
        self.registry = registry
        self.n = n
        self.f = f
        self.proven_levels: dict[bytes, int] = {}

    def quorum(self) -> int:
        return 2 * self.f + 1

    def verify(self, proof: StrongCommitProof) -> tuple:
        """Verify one proof; returns the accepted (block_id_bytes, level) list.

        Raises :class:`ProofError` when the certificate does not match
        the block or the quorum of signatures does not check out.
        """
        block = proof.block
        qc = proof.qc
        if qc.block_id != block.id():
            raise ProofError("certificate does not certify the log-carrying block")
        if qc.round != block.round:
            raise ProofError("certificate round mismatch")
        if not qc.validate(self.registry, self.quorum()):
            raise ProofError("quorum certificate signature validation failed")
        accepted = []
        for entry in block.commit_log:
            if not isinstance(entry, tuple) or len(entry) != 2:
                continue
            block_id_bytes, level = entry
            if not isinstance(block_id_bytes, bytes) or not isinstance(level, int):
                continue
            if not self.f <= level <= 2 * self.f:
                continue  # SFT levels live in [f, 2f]
            accepted.append((block_id_bytes, level))
            best = self.proven_levels.get(block_id_bytes, -1)
            if level > best:
                self.proven_levels[block_id_bytes] = level
        return tuple(accepted)
