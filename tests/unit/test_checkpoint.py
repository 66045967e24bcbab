"""Checkpoint subprotocol: digests, certificates, truncation, validation.

End-to-end snapshot joins (a partitioned replica installing a peer's
state image) live in ``tests/integration/test_checkpoint_join.py``;
here we pin the pieces: the state digest, certificate formation from
``CheckpointMsg`` flows, log truncation bookkeeping, and the
whole-response snapshot validation discipline.
"""

import pytest
from dataclasses import replace

from repro.crypto.hashing import hash_fields
from repro.experiments.spec import ScenarioSpec
from repro.sync.checkpoint import state_digest
from repro.sync.fetch import Fetch
from repro.types.messages import (
    CheckpointMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
)
from tests.conftest import store_root


def checkpoint_cluster(**overrides):
    params = dict(
        protocol="sft-diembft",
        n=4,
        topology="uniform",
        uniform_delay=0.01,
        jitter=0.002,
        duration=6.0,
        round_timeout=0.5,
        seeds=(11,),
        block_batch_count=2,
        block_batch_bytes=100,
        workload_rate=20.0,
        checkpoint_interval=4,
        verify_signatures=True,
    )
    params.update(overrides)
    cluster = ScenarioSpec(**params).build()
    cluster.run()
    return cluster


@pytest.fixture(scope="module")
def cluster():
    return checkpoint_cluster()


class TestStateDigest:
    def test_deterministic(self):
        block_id = hash_fields("b", 1)
        items = (("k1", "v1"), ("k2", "v2"))
        txids = (hash_fields("t", 1), hash_fields("t", 2))
        assert state_digest(8, block_id, items, txids) == state_digest(
            8, block_id, items, txids
        )

    def test_sensitive_to_every_field(self):
        block_id = hash_fields("b", 1)
        items = (("k1", "v1"),)
        txids = (hash_fields("t", 1),)
        base = state_digest(8, block_id, items, txids)
        assert state_digest(12, block_id, items, txids) != base
        assert state_digest(8, hash_fields("b", 2), items, txids) != base
        assert state_digest(8, block_id, (("k1", "v2"),), txids) != base
        assert state_digest(8, block_id, items, ()) != base


class TestKnobOff:
    def test_interval_zero_attaches_no_manager(self):
        cluster = checkpoint_cluster(
            checkpoint_interval=0, duration=1.0, workload_rate=0.0
        )
        for replica in cluster.replicas:
            assert replica.checkpoint is None


class TestCertificatesAndTruncation:
    def test_certificates_form_and_truncate(self, cluster):
        for replica in cluster.replicas:
            manager = replica.checkpoint
            assert replica.metrics.snapshot()["checkpoint.signed"] > 0
            assert replica.metrics.snapshot()["checkpoint.certificates"] > 0
            assert manager.stable is not None
            assert manager.stable.height % manager.interval == 0
            assert len(manager.stable.signers) >= replica.config.quorum()
            assert replica.metrics.snapshot()["checkpoint.blocks_truncated"] > 0

    def test_store_rooted_at_stable_checkpoint(self, cluster):
        for replica in cluster.replicas:
            manager = replica.checkpoint
            root = store_root(replica.store)
            assert root.id() == manager.stable.block_id
            assert replica.store.truncated_height == root.height - 1

    def test_live_blocks_bounded_by_interval(self, cluster):
        # The memory bound the subprotocol exists for: live blocks stay
        # O(interval), far below the total commit count.
        for replica in cluster.replicas:
            commits = len(replica.commit_tracker.commit_order)
            assert commits > 10 * replica.checkpoint.interval
            assert len(replica.store) < 4 * replica.checkpoint.interval

    def test_quorum_digests_agree(self, cluster):
        stables = {
            replica.checkpoint.stable.height: replica.checkpoint.stable.digest
            for replica in cluster.replicas
        }
        # Same height ⇒ same certified digest on every replica.
        for replica in cluster.replicas:
            stable = replica.checkpoint.stable
            assert stables[stable.height] == stable.digest


class TestOnCheckpointFiltering:
    def _forged(self, cluster, signer_replica, **overrides):
        manager = cluster.replicas[0].checkpoint
        stable = manager.stable
        params = dict(
            sender=signer_replica.replica_id,
            height=stable.height + 100 * manager.interval,
            block_id=hash_fields("forged-block", 1),
            digest=hash_fields("forged-digest", 1),
        )
        params.update(overrides)
        message = CheckpointMsg(**params)
        signature = signer_replica.context.signing_key.sign(
            message.signing_payload()
        )
        return replace(message, signature=signature)

    def test_sender_mismatch_ignored(self, cluster):
        manager = cluster.replicas[0].checkpoint
        message = self._forged(cluster, cluster.replicas[1])
        before = dict(manager._pending)
        manager.on_checkpoint(2, message)  # src ≠ msg.sender
        assert manager._pending == before

    def test_non_interval_height_ignored(self, cluster):
        manager = cluster.replicas[0].checkpoint
        message = self._forged(
            cluster,
            cluster.replicas[1],
            height=manager.stable.height + manager.interval + 1,
        )
        before = dict(manager._pending)
        manager.on_checkpoint(1, message)
        assert manager._pending == before

    def test_unsigned_ignored(self, cluster):
        manager = cluster.replicas[0].checkpoint
        message = self._forged(cluster, cluster.replicas[1])
        message = replace(message, signature=None)
        before = dict(manager._pending)
        manager.on_checkpoint(1, message)
        assert manager._pending == before

    def test_wrong_key_signature_ignored(self, cluster):
        manager = cluster.replicas[0].checkpoint
        message = self._forged(cluster, cluster.replicas[1])
        # Re-signed by replica 2 but claiming to be from replica 1.
        forged_signature = cluster.replicas[2].context.signing_key.sign(
            message.signing_payload()
        )
        message = replace(message, signature=forged_signature)
        before = dict(manager._pending)
        manager.on_checkpoint(1, message)
        assert manager._pending == before

    def test_duplicate_signer_counted_once(self, cluster):
        manager = cluster.replicas[0].checkpoint
        message = self._forged(cluster, cluster.replicas[1])
        manager.on_checkpoint(1, message)
        manager.on_checkpoint(1, message)
        key = (message.height, message.block_id, message.digest)
        assert list(manager._pending[key]) == [1]
        del manager._pending[key]  # leave the shared fixture clean

    def test_stale_height_ignored(self, cluster):
        manager = cluster.replicas[0].checkpoint
        message = self._forged(
            cluster, cluster.replicas[1], height=manager.interval
        )
        before = dict(manager._pending)
        manager.on_checkpoint(1, message)
        assert manager._pending == before


class TestTruncationGating:
    """A stored checkpoint block alone must not trigger truncation.

    Commits trail the stored tip by the chaining depth, so 2f+1
    digests for height H can arrive while this replica has block H but
    has only committed through H-2; pruning then would drop
    uncommitted ancestors whose commit events never fire.
    """

    def test_no_truncation_before_commit_reaches_stable(
        self, cluster, monkeypatch
    ):
        replica = cluster.replicas[0]
        manager = replica.checkpoint
        monkeypatch.setattr(manager, "_stable_truncated", False)
        monkeypatch.setattr(
            manager, "_local_height", lambda: manager.stable.height - 1
        )
        blocks_before = len(replica.store)
        manager._try_truncate()
        assert manager._stable_truncated is False
        assert len(replica.store) == blocks_before

    def test_truncates_once_commit_catches_up(self, cluster, monkeypatch):
        replica = cluster.replicas[0]
        manager = replica.checkpoint
        monkeypatch.setattr(manager, "_stable_truncated", False)
        # The fixture replica's real committed height is at or past its
        # stable checkpoint, so the gate opens.
        manager._try_truncate()
        assert manager._stable_truncated is True


class TestPendingBound:
    """The digest pool is bounded against Byzantine far-future floods."""

    def _bogus(self, cluster, index, height):
        signer = cluster.replicas[1]
        message = CheckpointMsg(
            sender=signer.replica_id,
            height=height,
            block_id=hash_fields("bogus-block", index),
            digest=hash_fields("bogus-digest", index),
        )
        signature = signer.context.signing_key.sign(message.signing_payload())
        return replace(message, signature=signature)

    def test_flood_cannot_grow_pending_past_cap(self, cluster, monkeypatch):
        manager = cluster.replicas[0].checkpoint
        monkeypatch.setattr(manager, "_pending", dict(manager._pending))
        cap = manager._max_pending
        base = manager.stable.height
        for index in range(3 * cap):
            message = self._bogus(
                cluster, index, base + (index + 1) * manager.interval
            )
            manager.on_checkpoint(1, message)
            assert len(manager._pending) <= cap

    def test_flood_does_not_evict_near_quorum_key(self, cluster, monkeypatch):
        manager = cluster.replicas[0].checkpoint
        monkeypatch.setattr(manager, "_pending", {})
        honest_key = (
            manager.stable.height + manager.interval,
            hash_fields("honest-block", 1),
            hash_fields("honest-digest", 1),
        )
        manager._pending[honest_key] = {1: None, 2: None}
        base = manager.stable.height + 10 * manager.interval
        for index in range(3 * manager._max_pending):
            message = self._bogus(
                cluster, index, base + (index + 1) * manager.interval
            )
            manager.on_checkpoint(1, message)
        # Single-signer far-future flood keys are evicted first; the
        # key closest to a certificate survives.
        assert honest_key in manager._pending


class TestServeSnapshot:
    def test_missing_block_is_honest_miss(self, cluster, monkeypatch):
        # A responder with a stable cert but without the checkpoint
        # block must answer with a miss, not a full response the
        # requester would reject and count against an honest peer.
        server = cluster.replicas[1]
        manager = server.checkpoint
        monkeypatch.setattr(server.store, "maybe_get", lambda block_id: None)
        sent = []
        monkeypatch.setattr(
            server.context, "send", lambda dst, msg: sent.append(msg)
        )
        request = SnapshotRequestMsg(
            sender=0, min_height=manager.stable.height, nonce=3
        )
        signature = cluster.replicas[0].context.signing_key.sign(
            request.signing_payload()
        )
        served_before = server.metrics.snapshot()["checkpoint.snapshots_served"]
        manager.serve_snapshot(0, replace(request, signature=signature))
        assert server.metrics.snapshot()["checkpoint.snapshots_served"] == (
            served_before
        )
        assert len(sent) == 1
        response = sent[0]
        assert response.cert_signers == ()
        assert response.block is None


class TestSnapshotValidation:
    """Whole-response validation: reject before any mutation."""

    def _valid_response(self, cluster, server_id=1):
        server = cluster.replicas[server_id]
        manager = server.checkpoint
        stable = manager.stable
        snapshot = manager._snapshots[stable.height]
        response = SnapshotResponseMsg(
            sender=server_id,
            nonce=7,
            cert_height=stable.height,
            cert_block_id=stable.block_id,
            cert_digest=stable.digest,
            cert_signers=stable.signers,
            block=server.store.maybe_get(stable.block_id),
            state=snapshot.state,
            applied_txids=snapshot.applied_txids,
            applied_count=snapshot.applied_count,
            rejected_count=snapshot.rejected_count,
        )
        signature = server.context.signing_key.sign(response.signing_payload())
        return replace(response, signature=signature)

    def _joiner(self, cluster, monkeypatch):
        manager = cluster.replicas[0].checkpoint
        # Pretend replica 0 is far behind, like a real joiner would be.
        monkeypatch.setattr(manager, "_local_height", lambda: 0)
        return manager

    def _fetch(self, response):
        return Fetch(
            target=None, nonce=7, peer=response.sender,
            goal=response.cert_height,
        )

    def test_valid_response_accepted(self, cluster, monkeypatch):
        response = self._valid_response(cluster)
        manager = self._joiner(cluster, monkeypatch)
        assert manager._validate_snapshot(response, self._fetch(response))

    def test_tampered_state_rejected(self, cluster, monkeypatch):
        response = self._valid_response(cluster)
        tampered = replace(
            response, state=response.state + (("evil", "payload"),)
        )
        signature = cluster.replicas[1].context.signing_key.sign(
            tampered.signing_payload()
        )
        tampered = replace(tampered, signature=signature)
        manager = self._joiner(cluster, monkeypatch)
        assert not manager._validate_snapshot(tampered, self._fetch(tampered))

    def test_thinned_certificate_rejected(self, cluster, monkeypatch):
        response = self._valid_response(cluster)
        thinned = replace(response, cert_signers=response.cert_signers[:1])
        signature = cluster.replicas[1].context.signing_key.sign(
            thinned.signing_payload()
        )
        thinned = replace(thinned, signature=signature)
        manager = self._joiner(cluster, monkeypatch)
        assert not manager._validate_snapshot(thinned, self._fetch(thinned))

    def test_block_certificate_mismatch_rejected(self, cluster, monkeypatch):
        response = self._valid_response(cluster)
        mismatched = replace(
            response, cert_block_id=hash_fields("other-block", 1)
        )
        signature = cluster.replicas[1].context.signing_key.sign(
            mismatched.signing_payload()
        )
        mismatched = replace(mismatched, signature=signature)
        manager = self._joiner(cluster, monkeypatch)
        assert not manager._validate_snapshot(
            mismatched, self._fetch(mismatched)
        )

    def test_unsigned_response_rejected(self, cluster, monkeypatch):
        response = replace(self._valid_response(cluster), signature=None)
        manager = self._joiner(cluster, monkeypatch)
        assert not manager._validate_snapshot(response, self._fetch(response))

    def test_caught_up_local_height_rejected(self, cluster):
        # Without the joiner patch, replica 0 is at (or past) the
        # stable height: installing would rewind it.
        response = self._valid_response(cluster)
        manager = cluster.replicas[0].checkpoint
        assert not manager._validate_snapshot(response, self._fetch(response))
