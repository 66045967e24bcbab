"""Hashing, signatures, and the PKI registry."""

from dataclasses import replace

import pytest

from repro.crypto.hashing import HashDigest, hash_bytes, hash_fields
from repro.crypto.registry import KeyRegistry
from repro.crypto.signatures import Signature, SigningKey
from repro.types.vote import Vote


class TestHashing:
    def test_digest_is_32_bytes(self):
        assert len(hash_bytes(b"x").value) == 32

    def test_bad_digest_length_rejected(self):
        with pytest.raises(ValueError):
            HashDigest(b"short")

    def test_hash_fields_deterministic(self):
        assert hash_fields("block", 1) == hash_fields("block", 1)

    def test_hash_fields_sensitive_to_order(self):
        assert hash_fields(1, 2) != hash_fields(2, 1)

    def test_hex_and_short_forms(self):
        digest = hash_bytes(b"x")
        assert digest.hex().startswith(digest.short())
        assert len(digest.short()) == 10

    def test_usable_as_dict_key(self):
        digest_a = hash_bytes(b"a")
        digest_b = hash_bytes(b"a")
        table = {digest_a: 1}
        assert table[digest_b] == 1


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        key = SigningKey(3, b"secret")
        signature = key.sign(b"message")
        assert key.verifying_key().verify(b"message", signature)

    def test_wrong_message_rejected(self):
        key = SigningKey(3, b"secret")
        signature = key.sign(b"message")
        assert not key.verifying_key().verify(b"other", signature)

    def test_wrong_signer_id_rejected(self):
        key = SigningKey(3, b"secret")
        signature = Signature(signer=4, value=key.sign(b"m").value)
        assert not key.verifying_key().verify(b"m", signature)

    def test_different_secrets_do_not_cross_verify(self):
        key_a = SigningKey(1, b"a")
        key_b = SigningKey(1, b"b")
        signature = key_a.sign(b"m")
        assert not key_b.verifying_key().verify(b"m", signature)


class TestKeyRegistry:
    def test_registry_is_deterministic(self):
        reg_a = KeyRegistry(4, seed=b"s")
        reg_b = KeyRegistry(4, seed=b"s")
        message = b"hello"
        signature = reg_a.signing_key(2).sign(message)
        assert reg_b.verify(message, signature)

    def test_distinct_seeds_distinct_keys(self):
        reg_a = KeyRegistry(4, seed=b"s1")
        reg_b = KeyRegistry(4, seed=b"s2")
        signature = reg_a.signing_key(0).sign(b"m")
        assert not reg_b.verify(b"m", signature)

    def test_out_of_range_signer_rejected(self):
        registry = KeyRegistry(4)
        signature = SigningKey(7, b"x").sign(b"m")
        assert not registry.verify(b"m", signature)

    def test_quorum_verification(self):
        registry = KeyRegistry(4)
        message = b"vote"
        signatures = [registry.signing_key(i).sign(message) for i in range(3)]
        assert registry.verify_quorum(message, signatures, quorum=3)

    def test_quorum_counts_distinct_signers_only(self):
        registry = KeyRegistry(4)
        message = b"vote"
        one = registry.signing_key(0).sign(message)
        assert not registry.verify_quorum(message, [one, one, one], quorum=2)

    def test_quorum_ignores_invalid_signatures(self):
        registry = KeyRegistry(4)
        message = b"vote"
        good = [registry.signing_key(i).sign(message) for i in range(2)]
        bad = [registry.signing_key(2).sign(b"other")]
        assert not registry.verify_quorum(message, good + bad, quorum=3)
        assert registry.verify_quorum(message, good, quorum=2)

    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError):
            KeyRegistry(0)


class TestHashCaching:
    def test_cached_hash_matches_dataclass_hash(self):
        # Iteration order of digest-keyed sets must not move: the
        # cached value must equal the generated hash((value,)).
        digest = hash_bytes(b"stable")
        assert hash(digest) == hash((digest.value,))
        assert hash(digest) == hash(digest)  # second call hits the cache

    def test_equal_digests_share_hash_and_equality(self):
        digest_a = hash_bytes(b"same")
        digest_b = hash_bytes(b"same")
        hash(digest_a)  # warm one cache only
        assert digest_a == digest_b
        assert hash(digest_a) == hash(digest_b)


class TestVerificationMemo:
    def test_memo_returns_same_verdicts(self):
        registry = KeyRegistry(4)
        message = b"payload"
        good = registry.signing_key(1).sign(message)
        forged = Signature(signer=1, value=b"\x00" * 32)
        for _ in range(3):  # repeated calls answer from the memo
            assert registry.verify(message, good)
            assert not registry.verify(message, forged)
        assert len(registry._verify_memo) == 2

    def test_memo_distinguishes_signers_and_payloads(self):
        registry = KeyRegistry(4)
        signature = registry.signing_key(1).sign(b"a")
        assert registry.verify(b"a", signature)
        assert not registry.verify(b"b", signature)
        cross = Signature(signer=2, value=signature.value)
        assert not registry.verify(b"a", cross)

    def test_memo_disabled_still_verifies(self, monkeypatch):
        monkeypatch.setattr(KeyRegistry, "memoize", False)
        registry = KeyRegistry(4)
        message = b"payload"
        signature = registry.signing_key(0).sign(message)
        assert registry.verify(message, signature)
        assert registry._verify_memo == {}

    def test_memo_limit_clears_not_grows(self, monkeypatch):
        monkeypatch.setattr(KeyRegistry, "_MEMO_LIMIT", 4)
        registry = KeyRegistry(4)
        for index in range(10):
            message = b"m%d" % index
            registry.verify(message, registry.signing_key(0).sign(message))
        assert len(registry._verify_memo) <= 4


def _signed_vote(registry, voter, block_id=None):
    vote = Vote(
        block_id=block_id or hash_bytes(b"block"),
        block_round=3,
        height=3,
        voter=voter,
    )
    signature = registry.signing_key(voter).sign(vote.signing_payload())
    return replace(vote, signature=signature)


class TestFusedQCVerification:
    """The one-pass ``verify_qc_votes`` hot path (QC validation)."""

    def test_valid_quorum_accepted(self):
        registry = KeyRegistry(4)
        votes = [_signed_vote(registry, voter) for voter in range(3)]
        assert registry.verify_qc_votes(votes, quorum=3)

    def test_tampered_signature_fails_certificate(self):
        registry = KeyRegistry(4)
        votes = [_signed_vote(registry, voter) for voter in range(3)]
        forged = replace(
            votes[2], signature=Signature(signer=2, value=b"\x00" * 32)
        )
        assert not registry.verify_qc_votes(votes[:2] + [forged], quorum=3)

    def test_vote_signed_by_another_key_fails_certificate(self):
        # One key's valid MAC over a vote claiming another voter.
        registry = KeyRegistry(4)
        votes = [_signed_vote(registry, voter) for voter in range(2)]
        claimed = Vote(
            block_id=hash_bytes(b"block"), block_round=3, height=3, voter=2
        )
        forged = replace(
            claimed, signature=registry.signing_key(3).sign(
                claimed.signing_payload()
            ),
        )
        assert registry.verify(forged.signing_payload(), forged.signature)
        assert not registry.verify_qc_votes(votes + [forged], quorum=3)

    def test_missing_signature_fails_certificate(self):
        registry = KeyRegistry(4)
        votes = [_signed_vote(registry, voter) for voter in range(2)]
        unsigned = Vote(
            block_id=hash_bytes(b"block"), block_round=3, height=3, voter=2
        )
        assert not registry.verify_qc_votes(votes + [unsigned], quorum=3)

    def test_out_of_range_signer_fails_certificate(self):
        registry = KeyRegistry(4)
        outsider = Vote(
            block_id=hash_bytes(b"block"), block_round=3, height=3, voter=9
        )
        signature = SigningKey(9, b"x").sign(outsider.signing_payload())
        outsider = replace(outsider, signature=signature)
        assert not registry.verify_qc_votes([outsider], quorum=1)

    def test_duplicate_voters_count_once(self):
        registry = KeyRegistry(4)
        vote = _signed_vote(registry, 0)
        assert not registry.verify_qc_votes([vote, vote, vote], quorum=2)
        assert registry.verify_qc_votes([vote, vote], quorum=1)

    def test_sub_quorum_rejected(self):
        registry = KeyRegistry(4)
        votes = [_signed_vote(registry, voter) for voter in range(2)]
        assert not registry.verify_qc_votes(votes, quorum=3)

    def test_memoize_off_matches_memoized_verdicts(self, monkeypatch):
        registry = KeyRegistry(4)
        votes = [_signed_vote(registry, voter) for voter in range(3)]
        forged = [
            replace(
                votes[0], signature=Signature(signer=0, value=b"\x11" * 32)
            )
        ] + votes[1:]
        memoized = (
            registry.verify_qc_votes(votes, quorum=3),
            registry.verify_qc_votes(forged, quorum=3),
        )
        monkeypatch.setattr(KeyRegistry, "memoize", False)
        cold = KeyRegistry(4)
        assert (
            cold.verify_qc_votes(votes, quorum=3),
            cold.verify_qc_votes(forged, quorum=3),
        ) == memoized
        assert cold._verify_memo == {}

    def test_shares_memo_entries_with_verify(self):
        registry = KeyRegistry(4)
        vote = _signed_vote(registry, 1)
        assert registry.verify_qc_votes([vote], quorum=1)
        entries = len(registry._verify_memo)
        # The scalar path reuses the fused path's memo entry.
        assert registry.verify(vote.signing_payload(), vote.signature)
        assert len(registry._verify_memo) == entries
