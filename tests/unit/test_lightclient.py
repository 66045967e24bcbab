"""Light-client strong-commit proofs (Section 5)."""

import pytest

from repro.crypto.registry import KeyRegistry
from repro.lightclient import LightClient, ProofError, StrongCommitProof, build_proof
from repro.types.block import Block, make_genesis
from repro.types.chain import BlockStore
from repro.types.quorum_cert import QuorumCertificate
from repro.types.vote import StrongVote


def certified_log_block(registry, n, quorum, commit_log, round_number=1):
    """A block carrying ``commit_log``, certified by ``quorum`` replicas."""
    genesis, genesis_qc = make_genesis()
    block = Block(
        parent_id=genesis.id(),
        qc=genesis_qc,
        round=round_number,
        height=1,
        proposer=0,
        commit_log=commit_log,
    )
    votes = []
    for voter in range(quorum):
        vote = StrongVote(
            block_id=block.id(),
            block_round=block.round,
            height=block.height,
            voter=voter,
        )
        signature = registry.signing_key(voter).sign(vote.signing_payload())
        votes.append(
            StrongVote(
                block_id=vote.block_id,
                block_round=vote.block_round,
                height=vote.height,
                voter=vote.voter,
                signature=signature,
            )
        )
    qc = QuorumCertificate(
        block_id=block.id(),
        round=block.round,
        height=block.height,
        votes=tuple(votes),
    )
    return genesis, block, qc


class TestLightClient:
    def setup_method(self):
        self.registry = KeyRegistry(4)
        self.client = LightClient(self.registry, n=4, f=1)

    def test_valid_proof_accepted(self):
        target = (b"\x01" * 32, 2)
        _, block, qc = certified_log_block(
            self.registry, 4, 3, commit_log=(target,)
        )
        accepted = self.client.verify(StrongCommitProof(block=block, qc=qc))
        assert accepted == (target,)
        assert self.client.proven_levels[b"\x01" * 32] == 2

    def test_highest_level_retained(self):
        low = (b"\x01" * 32, 1)
        high = (b"\x01" * 32, 2)
        _, block, qc = certified_log_block(
            self.registry, 4, 3, commit_log=(high, low)
        )
        self.client.verify(StrongCommitProof(block=block, qc=qc))
        assert self.client.proven_levels[b"\x01" * 32] == 2

    def test_mismatched_certificate_rejected(self):
        _, block, qc = certified_log_block(
            self.registry, 4, 3, commit_log=((b"\x01" * 32, 1),)
        )
        _, other_block, _ = certified_log_block(
            self.registry, 4, 3, commit_log=((b"\x02" * 32, 1),)
        )
        with pytest.raises(ProofError):
            self.client.verify(StrongCommitProof(block=other_block, qc=qc))

    def test_undersized_quorum_rejected(self):
        _, block, qc = certified_log_block(
            self.registry, 4, 2, commit_log=((b"\x01" * 32, 1),)
        )
        with pytest.raises(ProofError):
            self.client.verify(StrongCommitProof(block=block, qc=qc))

    def test_forged_vote_rejected(self):
        _, block, qc = certified_log_block(
            self.registry, 4, 3, commit_log=((b"\x01" * 32, 1),)
        )
        forged_votes = tuple(
            StrongVote(
                block_id=vote.block_id,
                block_round=vote.block_round,
                height=vote.height,
                voter=vote.voter,
                signature=self.registry.signing_key(3).sign(b"junk"),
            )
            for vote in qc.votes
        )
        bad_qc = QuorumCertificate(
            block_id=qc.block_id,
            round=qc.round,
            height=qc.height,
            votes=forged_votes,
        )
        with pytest.raises(ProofError):
            self.client.verify(StrongCommitProof(block=block, qc=bad_qc))

    def test_out_of_range_levels_ignored(self):
        # Levels must lie in [f, 2f] = [1, 2].
        entries = ((b"\x01" * 32, 0), (b"\x02" * 32, 3), (b"\x03" * 32, 2))
        _, block, qc = certified_log_block(
            self.registry, 4, 3, commit_log=entries
        )
        accepted = self.client.verify(StrongCommitProof(block=block, qc=qc))
        assert accepted == ((b"\x03" * 32, 2),)

    def test_malformed_entries_skipped(self):
        entries = (("not-bytes", 2), (b"\x01" * 32,), (b"\x02" * 32, 2))
        _, block, qc = certified_log_block(
            self.registry, 4, 3, commit_log=entries
        )
        accepted = self.client.verify(StrongCommitProof(block=block, qc=qc))
        assert accepted == ((b"\x02" * 32, 2),)


class TestBuildProof:
    def test_build_proof_from_store(self):
        registry = KeyRegistry(4)
        genesis, block, qc = certified_log_block(
            registry, 4, 3, commit_log=((b"\x01" * 32, 2),)
        )
        _, genesis_qc = make_genesis()
        store = BlockStore(genesis, genesis_qc)
        store.add_block(block)
        store.record_qc(qc)
        proof = build_proof(store, block.id())
        assert proof is not None
        assert proof.block.commit_log == ((b"\x01" * 32, 2),)

    def test_no_proof_without_qc(self):
        registry = KeyRegistry(4)
        genesis, block, _ = certified_log_block(
            registry, 4, 3, commit_log=((b"\x01" * 32, 2),)
        )
        _, genesis_qc = make_genesis()
        store = BlockStore(genesis, genesis_qc)
        store.add_block(block)
        assert build_proof(store, block.id()) is None

    def test_no_proof_for_empty_log(self):
        registry = KeyRegistry(4)
        genesis, block, qc = certified_log_block(registry, 4, 3, commit_log=())
        _, genesis_qc = make_genesis()
        store = BlockStore(genesis, genesis_qc)
        store.add_block(block)
        store.record_qc(qc)
        assert build_proof(store, block.id()) is None
