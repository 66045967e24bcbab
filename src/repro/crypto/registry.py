"""Public-key infrastructure for a fixed permissioned replica set.

Section 2 assumes "a public-key infrastructure exists to certify each
party's public key".  :class:`KeyRegistry` plays that role: it mints
one deterministic key pair per replica and serves verification keys to
everyone.  It also provides the quorum-level checks used when
validating quorum certificates.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Iterable

from repro.crypto.signatures import Signature, SigningKey


class KeyRegistry:
    """Key directory for ``n`` replicas, ids ``0 .. n-1``.

    Secrets are derived from a registry seed so that two registries
    built with the same ``(n, seed)`` are interchangeable — handy for
    reconstructing verification state in tests and light clients.

    Verification results are memoized per registry, keyed by
    ``(signer, payload, mac)``: HMAC verification is pure, so a vote
    whose signature one replica checked is never re-HMAC'd when the
    other ``n - 1`` replicas of the same simulated cluster see it in a
    QC.  ``memoize`` is a class-level switch the differential
    determinism tests flip off to prove caching never changes results.
    """

    #: Process-wide toggle; tests disable it to cross-check results.
    memoize = True

    #: Memo-size bound; reaching it clears the memo (cheap, rare — a
    #: long run re-warms within one round).
    _MEMO_LIMIT = 1 << 20

    def __init__(self, n: int, seed: bytes = b"repro-sft") -> None:
        if n <= 0:
            raise ValueError("registry needs at least one replica")
        self.n = n
        self._signing_keys = []
        self._verifying_keys = []
        self._verify_memo: dict = {}
        for replica_id in range(n):
            secret = hashlib.sha256(seed + b"|" + str(replica_id).encode()).digest()
            key = SigningKey(replica_id, secret)
            self._signing_keys.append(key)
            self._verifying_keys.append(key.verifying_key())

    def signing_key(self, replica_id: int) -> SigningKey:
        """Return the private key of ``replica_id`` (simulation only)."""
        return self._signing_keys[replica_id]

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Verify one signature against the registered key of its signer."""
        signer = signature.signer
        if not 0 <= signer < self.n:
            return False
        if not KeyRegistry.memoize:
            return self._verifying_keys[signer].verify(message, signature)
        key = (signer, message, signature.value)
        result = self._verify_memo.get(key)
        if result is None:
            result = self._verifying_keys[signer].verify(message, signature)
            if len(self._verify_memo) >= self._MEMO_LIMIT:
                self._verify_memo.clear()
            self._verify_memo[key] = result
        return result

    def verify_qc_votes(self, votes, quorum: int) -> bool:
        """Fused one-pass verification of a certificate's votes.

        Semantically identical to checking each vote through
        :meth:`verify` the way
        :meth:`~repro.types.quorum_cert.QuorumCertificate.validate`
        used to — duplicate voters are skipped, a missing or invalid
        signature, or one made by anyone but the vote's ``voter``,
        fails the whole certificate, and at least ``quorum``
        distinct voters must remain — but run as a single loop with the
        memo table, key directory, and HMAC comparison hoisted out of
        the per-vote path.  Respects the class-level :attr:`memoize`
        switch (off ⇒ every MAC is recomputed) and shares the same memo
        entries as :meth:`verify`, so interleaving the two paths never
        changes a verdict.
        """
        n = self.n
        keys = self._verifying_keys
        memoize = KeyRegistry.memoize
        memo = self._verify_memo
        limit = self._MEMO_LIMIT
        compare = hmac.compare_digest
        seen = set()
        for vote in votes:
            voter = vote.voter
            if voter in seen:
                continue
            signature = vote.signature
            if signature is None:
                return False
            signer = signature.signer
            if signer != voter or not 0 <= signer < n:
                return False
            payload = vote.signing_payload()
            if memoize:
                key = (signer, payload, signature.value)
                valid = memo.get(key)
                if valid is None:
                    valid = compare(
                        keys[signer].expected_mac(payload), signature.value
                    )
                    if len(memo) >= limit:
                        memo.clear()
                    memo[key] = valid
            else:
                valid = compare(
                    keys[signer].expected_mac(payload), signature.value
                )
            if not valid:
                return False
            seen.add(voter)
        return len(seen) >= quorum

    def verify_quorum(
        self, message: bytes, signatures: Iterable[Signature], quorum: int
    ) -> bool:
        """Check that ``signatures`` contains a valid quorum over ``message``.

        Requires at least ``quorum`` *distinct* valid signers.  Invalid
        or duplicate signatures are ignored rather than rejected
        outright, matching how a QC aggregator behaves.
        """
        valid_signers = set()
        for signature in signatures:
            if signature.signer in valid_signers:
                continue
            if self.verify(message, signature):
                valid_signers.add(signature.signer)
        return len(valid_signers) >= quorum
