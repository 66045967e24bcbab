"""Blocks, votes, QCs, payloads: structure and validation."""

from repro.crypto.registry import KeyRegistry
from repro.types.block import Block, make_genesis
from repro.types.quorum_cert import QuorumCertificate, TimeoutCertificate
from repro.types.transaction import Payload, Transaction, TxBatch
from repro.types.vote import StrongVote, Vote


class TestGenesis:
    def test_genesis_round_and_height(self):
        genesis, qc = make_genesis()
        assert genesis.round == 0
        assert genesis.height == 0
        assert genesis.is_genesis()
        assert qc.is_genesis()
        assert qc.block_id == genesis.id()

    def test_genesis_deterministic(self):
        genesis_a, _ = make_genesis()
        genesis_b, _ = make_genesis()
        assert genesis_a.id() == genesis_b.id()


class TestBlockIdentity:
    def _block(self, **overrides):
        genesis, qc = make_genesis()
        fields = dict(
            parent_id=genesis.id(),
            qc=qc,
            round=1,
            height=1,
            proposer=0,
            payload=Payload(batch=TxBatch(count=5, size_bytes=100, tag=1)),
        )
        fields.update(overrides)
        return Block(**fields)

    def test_id_stable_and_cached(self):
        block = self._block()
        assert block.id() == block.id()

    def test_round_changes_id(self):
        assert self._block(round=1).id() != self._block(round=2).id()

    def test_payload_changes_id(self):
        other = Payload(batch=TxBatch(count=5, size_bytes=100, tag=2))
        assert self._block().id() != self._block(payload=other).id()

    def test_proposer_changes_id(self):
        assert self._block(proposer=0).id() != self._block(proposer=1).id()

    def test_commit_log_changes_id(self):
        logged = self._block(commit_log=((b"\x00" * 32, 3),))
        assert self._block().id() != logged.id()

    def test_created_at_does_not_change_id(self):
        # Timestamps are bookkeeping, not consensus content.
        assert self._block(created_at=1.0).id() == self._block(created_at=2.0).id()


class TestPayload:
    def test_tx_count_combines_batch_and_transactions(self):
        txns = tuple(Transaction(client_id=0, sequence=i) for i in range(3))
        payload = Payload(
            transactions=txns, batch=TxBatch(count=10, size_bytes=100)
        )
        assert payload.tx_count() == 13

    def test_size_accounts_for_transactions(self):
        txn = Transaction(client_id=0, sequence=0, payload=b"x" * 100)
        payload = Payload(transactions=(txn,))
        assert payload.size_bytes() == txn.size_bytes() == 116

    def test_txid_distinct_per_sequence(self):
        txn_a = Transaction(client_id=0, sequence=0)
        txn_b = Transaction(client_id=0, sequence=1)
        assert txn_a.txid() != txn_b.txid()


class TestTxidMemo:
    def _txn(self, **overrides):
        fields = dict(client_id=3, sequence=9, payload=b"set k v",
                      submitted_at=1.5)
        fields.update(overrides)
        return Transaction(**fields)

    def test_same_digest_as_a_fresh_hash(self):
        from repro.crypto.hashing import hash_fields

        txn = self._txn()
        first = txn.txid()
        assert first == hash_fields("txn", 3, 9, b"set k v")
        assert txn.txid() is first  # second call hits the memo

    def test_replace_does_not_inherit_a_stale_id(self):
        from dataclasses import replace

        txn = self._txn()
        old = txn.txid()
        changed = replace(txn, payload=b"set k w")
        assert changed.txid() == self._txn(payload=b"set k w").txid()
        assert changed.txid() != old
        # A field outside the id leaves it equal, computed afresh.
        assert replace(txn, submitted_at=2.0).txid() == old

    def test_memo_is_outside_equality_hash_and_repr(self):
        warm, cold = self._txn(), self._txn()
        warm.txid()
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)

    def test_pickle_and_codec_roundtrips_agree(self):
        import pickle

        from repro.rt_net.codec import FrameDecoder, encode_frame

        warm, cold = self._txn(), self._txn()
        digest = warm.txid()
        # The wire carries init fields only: a computed id changes no byte.
        assert encode_frame(warm) == encode_frame(cold)
        (decoded,) = FrameDecoder().feed(encode_frame(warm))
        for copy in (decoded, pickle.loads(pickle.dumps(warm)),
                     pickle.loads(pickle.dumps(cold))):
            assert copy == warm
            assert copy.txid() == digest

    def test_block_id_unchanged_by_warm_transactions(self):
        genesis, genesis_qc = make_genesis()

        def block(txns):
            return Block(
                parent_id=genesis.id(), qc=genesis_qc, round=1, height=1,
                proposer=0, payload=Payload(transactions=txns),
            )

        warm = (self._txn(), self._txn(sequence=10))
        for txn in warm:
            txn.txid()
        cold = (self._txn(), self._txn(sequence=10))
        assert block(warm).id() == block(cold).id()


class TestVotes:
    def _vote_pair(self):
        genesis, _ = make_genesis()
        plain = Vote(
            block_id=genesis.id(), block_round=1, height=1, voter=2
        )
        strong = StrongVote(
            block_id=genesis.id(), block_round=5, height=5, voter=2, marker=3
        )
        return plain, strong

    def test_plain_vote_behaves_like_marker_zero(self):
        plain, _ = self._vote_pair()
        assert plain.conflicts_marker() == 0

    def test_signing_payload_covers_marker(self):
        genesis, _ = make_genesis()
        vote_a = StrongVote(
            block_id=genesis.id(), block_round=1, height=1, voter=0, marker=0
        )
        vote_b = StrongVote(
            block_id=genesis.id(), block_round=1, height=1, voter=0, marker=1
        )
        assert vote_a.signing_payload() != vote_b.signing_payload()

    def test_signing_payload_covers_intervals(self):
        genesis, _ = make_genesis()
        vote_a = StrongVote(
            block_id=genesis.id(), block_round=1, height=1, voter=0,
            intervals=((1, 1),),
        )
        vote_b = StrongVote(
            block_id=genesis.id(), block_round=1, height=1, voter=0,
            intervals=((1, 2),),
        )
        assert vote_a.signing_payload() != vote_b.signing_payload()


class TestQuorumCertificate:
    def test_genesis_qc_valid_by_definition(self):
        registry = KeyRegistry(4)
        _, genesis_qc = make_genesis()
        assert genesis_qc.is_genesis()
        assert genesis_qc.validate(registry, quorum=3)

    def test_empty_non_genesis_qc_invalid(self):
        registry = KeyRegistry(4)
        genesis, _ = make_genesis()
        qc = QuorumCertificate(block_id=genesis.id(), round=1, height=0, votes=())
        assert not qc.validate(registry, quorum=3)

    def test_voters_deduplicated(self):
        genesis, _ = make_genesis()
        vote = Vote(block_id=genesis.id(), block_round=1, height=1, voter=1)
        qc = QuorumCertificate(
            block_id=genesis.id(), round=1, height=1, votes=(vote, vote)
        )
        assert qc.voters() == frozenset({1})


class TestQuorumCertificateValidation:
    def _make_certified(self, registry, voters, tamper=None):
        genesis, genesis_qc = make_genesis()
        block = Block(
            parent_id=genesis.id(),
            qc=genesis_qc,
            round=1,
            height=1,
            proposer=0,
        )
        votes = []
        for voter in voters:
            vote = Vote(
                block_id=block.id(),
                block_round=block.round,
                height=block.height,
                voter=voter,
            )
            signature = registry.signing_key(voter).sign(vote.signing_payload())
            votes.append(
                Vote(
                    block_id=vote.block_id,
                    block_round=vote.block_round,
                    height=vote.height,
                    voter=vote.voter,
                    signature=signature,
                )
            )
        if tamper:
            votes = tamper(votes)
        return block, QuorumCertificate(
            block_id=block.id(),
            round=block.round,
            height=block.height,
            votes=tuple(votes),
        )

    def test_valid_quorum_accepted(self):
        registry = KeyRegistry(4)
        _, qc = self._make_certified(registry, range(3))
        assert qc.validate(registry, quorum=3)

    def test_forged_signature_rejected(self):
        registry = KeyRegistry(4)

        def tamper(votes):
            bad = votes[0]
            forged = Vote(
                block_id=bad.block_id,
                block_round=bad.block_round,
                height=bad.height,
                voter=bad.voter,
                signature=registry.signing_key(3).sign(b"junk"),
            )
            return [forged] + votes[1:]

        _, qc = self._make_certified(registry, range(3), tamper=tamper)
        assert not qc.validate(registry, quorum=3)

    def test_vote_for_other_block_rejected(self):
        registry = KeyRegistry(4)
        block, qc = self._make_certified(registry, range(3))
        other = QuorumCertificate(
            block_id=block.qc.block_id,  # genesis id, not this block
            round=block.round,
            height=block.height,
            votes=qc.votes,
        )
        assert not other.validate(registry, quorum=3)


class TestTimeoutCertificate:
    def test_fields(self):
        tc = TimeoutCertificate(
            round=5, timeout_voters=frozenset({1, 2, 3}), highest_qc_round=4
        )
        assert tc.round == 5
        assert len(tc.timeout_voters) == 3
        assert tc.highest_qc_round == 4


class TestPayloadCaching:
    def test_vote_signing_payload_cached_and_stable(self):
        genesis, _ = make_genesis()
        vote = StrongVote(
            block_id=genesis.id(), block_round=3, height=3, voter=1, marker=2
        )
        first = vote.signing_payload()
        assert vote.signing_payload() is first  # second call hits the cache
        fresh = StrongVote(
            block_id=genesis.id(), block_round=3, height=3, voter=1, marker=2
        )
        assert fresh.signing_payload() == first

    def test_plain_vote_exposes_empty_intervals(self):
        genesis, _ = make_genesis()
        vote = Vote(block_id=genesis.id(), block_round=1, height=1, voter=0)
        assert vote.intervals == ()

    def test_cache_excluded_from_equality(self):
        genesis, _ = make_genesis()
        warm = Vote(block_id=genesis.id(), block_round=1, height=1, voter=0)
        warm.signing_payload()
        cold = Vote(block_id=genesis.id(), block_round=1, height=1, voter=0)
        assert warm == cold
        assert hash(warm) == hash(cold)

    def test_signed_replacement_keeps_payload(self):
        from dataclasses import replace

        registry = KeyRegistry(4)
        genesis, _ = make_genesis()
        vote = Vote(block_id=genesis.id(), block_round=1, height=1, voter=2)
        payload = vote.signing_payload()
        signed = replace(
            vote, signature=registry.signing_key(2).sign(payload)
        )
        assert signed.signing_payload() == payload
        assert registry.verify(signed.signing_payload(), signed.signature)


class TestQuorumCertificateMemo:
    def _certified(self, registry):
        helper = TestQuorumCertificateValidation()
        return helper._make_certified(registry, range(3))

    def test_validate_memoized_per_certificate(self):
        registry = KeyRegistry(4)
        _, qc = self._certified(registry)
        assert qc._validate_memo is None
        assert qc.validate(registry, quorum=3)
        memo = qc._validate_memo
        assert memo == (registry, 3, True)
        assert qc.validate(registry, quorum=3)
        assert qc._validate_memo is memo  # answered from the memo

    def test_memo_respects_quorum_argument(self):
        registry = KeyRegistry(4)
        _, qc = self._certified(registry)
        assert qc.validate(registry, quorum=3)
        assert not qc.validate(registry, quorum=4)  # re-evaluated, not memo
        assert qc.validate(registry, quorum=3)

    def test_memo_respects_registry_identity(self):
        registry = KeyRegistry(4)
        _, qc = self._certified(registry)
        assert qc.validate(registry, quorum=3)
        # A registry with different keys must not inherit the verdict.
        stranger = KeyRegistry(4, seed=b"other")
        assert not qc.validate(stranger, quorum=3)

    def test_invalid_verdict_memoized_too(self):
        registry = KeyRegistry(4)
        genesis, _ = make_genesis()
        qc = QuorumCertificate(block_id=genesis.id(), round=1, height=0, votes=())
        assert not qc.validate(registry, quorum=3)
        assert qc._validate_memo == (registry, 3, False)
        assert not qc.validate(registry, quorum=3)

    def test_memo_disabled_with_registry_switch(self, monkeypatch):
        monkeypatch.setattr(KeyRegistry, "memoize", False)
        registry = KeyRegistry(4)
        _, qc = self._certified(registry)
        assert qc.validate(registry, quorum=3)
        assert qc._validate_memo is None
