"""Light client against a live SFT-DiemBFT run (Section 5 end to end)."""

from repro.lightclient import LightClient, StrongCommitProof, build_proof
from tests.conftest import small_experiment


class TestLightClientEndToEnd:
    def _run(self):
        cluster = small_experiment(duration=8.0).build().run()
        client = LightClient(
            cluster.registry, n=cluster.config.n, f=cluster.config.resolved_f()
        )
        return cluster, client

    def test_commit_logs_appear_in_proposals(self):
        cluster, _ = self._run()
        replica = cluster.replicas[0]
        logged = [
            block
            for block in replica.store.all_blocks()
            if block.commit_log
        ]
        assert logged

    def test_client_accepts_real_proofs(self):
        cluster, client = self._run()
        replica = cluster.replicas[0]
        verified_entries = 0
        for block in replica.store.all_blocks():
            if not block.commit_log:
                continue
            proof = build_proof(replica.store, block.id())
            if proof is None:
                continue
            verified_entries += len(client.verify(proof))
        assert verified_entries > 10

    def test_client_strength_matches_replica_view(self):
        cluster, client = self._run()
        replica = cluster.replicas[0]
        for block in replica.store.all_blocks():
            proof = build_proof(replica.store, block.id())
            if proof is not None:
                client.verify(proof)
        f = cluster.config.resolved_f()
        checked = 0
        for block_id_bytes, proven in client.proven_levels.items():
            from repro.crypto.hashing import HashDigest

            block_id = HashDigest(block_id_bytes)
            actual = replica.commit_tracker.strength_of(block_id)
            # The replica's live view is at least as fresh as any proof.
            assert f <= proven <= max(actual, proven)
            assert proven <= actual
            checked += 1
        assert checked > 10

    def test_tampered_proof_rejected(self):
        cluster, client = self._run()
        replica = cluster.replicas[0]
        import pytest

        from repro.lightclient import ProofError
        from repro.types.quorum_cert import QuorumCertificate

        for block in replica.store.all_blocks():
            proof = build_proof(replica.store, block.id())
            if proof is None:
                continue
            truncated = QuorumCertificate(
                block_id=proof.qc.block_id,
                round=proof.qc.round,
                height=proof.qc.height,
                votes=proof.qc.votes[:2],  # below quorum
            )
            with pytest.raises(ProofError):
                client.verify(StrongCommitProof(block=proof.block, qc=truncated))
            break
