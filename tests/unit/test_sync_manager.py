"""SyncManager edge cases: validation, retry/rotation, deep gaps.

These tests drive the manager through hand-crafted messages, with
``context.send`` captured, so every rejection and rotation path is
observable without a full simulation.
"""

from dataclasses import replace

import pytest

from repro.experiments.spec import ScenarioSpec
from repro.sync import manager as sync_manager
from repro.sync.manager import SYNC_MAX_BLOCKS, SYNC_RETRY, SYNC_ROUND_LAG
from repro.types.messages import SyncRequestMsg, SyncResponseMsg
from repro.types.quorum_cert import QuorumCertificate
from repro.types.vote import Vote


def build_cluster(**overrides):
    params = dict(
        name="sync-unit",
        protocol="sft-diembft",
        n=4,
        topology="uniform",
        uniform_delay=0.01,
        round_timeout=0.3,
        duration=4.0,
        seeds=(7,),
        block_batch_count=2,
        block_batch_bytes=100,
    )
    params.update(overrides)
    spec = ScenarioSpec(**params)
    cluster = spec.build(spec.seeds[0])
    cluster.build()
    return cluster


@pytest.fixture(scope="module")
def donor():
    """A finished healthy run whose replica 0 holds a certified chain."""
    cluster = build_cluster()
    cluster.run()
    return cluster


def donor_chain(donor, count):
    """The newest ``count`` certified non-genesis blocks, newest first."""
    store = donor.replicas[0].store
    blocks = []
    cursor = store.highest_certified_block()
    while not cursor.is_genesis() and len(blocks) < count:
        blocks.append(cursor)
        cursor = store.maybe_get(cursor.parent_id)
    assert len(blocks) == count, "donor run too short for this test"
    return tuple(blocks)


def capture_sends(replica):
    sent = []
    replica.context.send = lambda dst, message: sent.append((dst, message))
    return sent


def signed_request(cluster, sender, target, nonce=1, max_blocks=8):
    request = SyncRequestMsg(
        sender=sender, target=target, max_blocks=max_blocks, nonce=nonce
    )
    signature = cluster.registry.signing_key(sender).sign(
        request.signing_payload()
    )
    return replace(request, signature=signature)


def signed_response(cluster, sender, nonce, blocks, tip_qc=None):
    response = SyncResponseMsg(
        sender=sender, nonce=nonce, blocks=tuple(blocks), tip_qc=tip_qc
    )
    signature = cluster.registry.signing_key(sender).sign(
        response.signing_payload()
    )
    return replace(response, signature=signature)


class TestServe:
    def test_serves_linked_certified_chain(self, donor):
        replica = donor.replicas[0]
        sent = capture_sends(replica)
        target = replica.store.highest_certified_block()
        replica.deliver(1, signed_request(donor, 1, target.id(), nonce=9))
        assert len(sent) == 1
        dst, response = sent[0]
        assert dst == 1 and isinstance(response, SyncResponseMsg)
        assert response.nonce == 9
        assert response.blocks[0].id() == target.id()
        for block, parent in zip(response.blocks, response.blocks[1:]):
            assert block.parent_id == parent.id()
        assert response.tip_qc is not None
        assert response.tip_qc.block_id == target.id()
        assert response.tip_qc.validate(donor.registry, 3)

    def test_reply_capped_at_sync_max_blocks(self, donor):
        server = donor.replicas[0]
        sent = capture_sends(server)
        tip = donor_chain(donor, 1)[0]
        server.sync.serve(
            1, signed_request(donor, 1, tip.id(), max_blocks=10 * SYNC_MAX_BLOCKS)
        )
        [(_, response)] = sent
        assert len(response.blocks) == SYNC_MAX_BLOCKS

    def test_unknown_target_yields_empty_miss(self, donor):
        fresh = build_cluster()
        replica = fresh.replicas[0]
        sent = capture_sends(replica)
        unknown = donor.replicas[0].store.highest_certified_block().id()
        replica.deliver(1, signed_request(fresh, 1, unknown, nonce=3))
        assert len(sent) == 1
        assert sent[0][1].blocks == ()

    def test_bad_request_signature_is_ignored(self, donor):
        replica = donor.replicas[0]
        sent = capture_sends(replica)
        request = SyncRequestMsg(
            sender=1,
            target=replica.store.highest_certified_block().id(),
            nonce=4,
        )  # unsigned
        replica.deliver(1, request)
        assert sent == []


class TestRoundLag:
    def test_lag_within_bound_fetches_nothing(self):
        replica = build_cluster().replicas[0]
        sent = capture_sends(replica)
        replica.sync.note_round_lag(SYNC_ROUND_LAG, certified_round=0)
        assert sent == []
        assert replica.sync.inflight() == 0

    def test_lag_beyond_bound_requests_the_tip(self):
        replica = build_cluster().replicas[0]
        sent = capture_sends(replica)
        replica.sync.note_round_lag(SYNC_ROUND_LAG + 1, certified_round=0)
        [(_, request)] = sent
        assert request.target is None  # the peer's certified tip
        assert request.max_blocks == SYNC_MAX_BLOCKS
        # A second lag report while the tip fetch is out sends nothing.
        replica.sync.note_round_lag(SYNC_ROUND_LAG + 5, certified_round=0)
        assert len(sent) == 1


class TestResponseValidation:
    def test_invalid_embedded_qc_rejected_without_store_mutation(self, donor):
        cluster = build_cluster()
        replica = cluster.replicas[0]
        sent = capture_sends(replica)
        chain = donor_chain(donor, 3)
        replica.sync.note_missing(chain[0].id())
        (_, request), = sent
        # Tamper the newest block: its embedded QC names the right
        # parent but carries no valid vote signatures.
        forged_qc = QuorumCertificate(
            block_id=chain[0].parent_id,
            round=chain[1].round,
            height=chain[1].height,
            votes=tuple(
                Vote(
                    block_id=chain[0].parent_id,
                    block_round=chain[1].round,
                    height=chain[1].height,
                    voter=voter,
                )
                for voter in range(3)
            ),
        )
        tampered = replace(chain[0], qc=forged_qc)
        before = len(replica.store)
        response = signed_response(
            cluster, 1, request.nonce, (tampered, chain[1])
        )
        replica.deliver(1, response)
        assert len(replica.store) == before
        assert replica.metrics.snapshot()["sync.invalid_responses"] == 1

    def test_invalid_tip_qc_rejected_without_store_mutation(self, donor):
        cluster = build_cluster()
        replica = cluster.replicas[0]
        sent = capture_sends(replica)
        chain = donor_chain(donor, 2)
        replica.sync.note_missing(chain[0].id())
        (_, request), = sent
        forged_tip = QuorumCertificate(
            block_id=chain[0].id(),
            round=chain[0].round,
            height=chain[0].height,
            votes=(),
        )
        before = len(replica.store)
        response = signed_response(
            cluster, 1, request.nonce, chain, tip_qc=forged_tip
        )
        replica.deliver(1, response)
        assert len(replica.store) == before
        assert replica.metrics.snapshot()["sync.invalid_responses"] == 1

    def test_broken_linkage_rejected(self, donor):
        cluster = build_cluster()
        replica = cluster.replicas[0]
        sent = capture_sends(replica)
        chain = donor_chain(donor, 3)
        replica.sync.note_missing(chain[0].id())
        (_, request), = sent
        before = len(replica.store)
        # Skip the middle block: chain[0].parent_id != chain[2].id().
        response = signed_response(
            cluster, 1, request.nonce, (chain[0], chain[2])
        )
        replica.deliver(1, response)
        assert len(replica.store) == before
        assert replica.metrics.snapshot()["sync.invalid_responses"] == 1

    def test_unsolicited_response_is_dropped(self, donor):
        cluster = build_cluster()
        replica = cluster.replicas[0]
        chain = donor_chain(donor, 2)
        before = len(replica.store)
        replica.deliver(1, signed_response(cluster, 1, nonce=99, blocks=chain))
        assert len(replica.store) == before
        assert replica.metrics.snapshot()["sync.responses_applied"] == 0


class TestRetryAndRotation:
    def test_withholding_peer_triggers_rotation(self, donor):
        cluster = build_cluster()
        replica = cluster.replicas[0]
        sent = capture_sends(replica)
        target = donor_chain(donor, 1)[0].id()
        replica.sync.note_missing(target)
        assert [dst for dst, _ in sent] == [1]
        # Nobody answers: the retry timer must rotate to the next peer.
        cluster.simulator.run_until(SYNC_RETRY * 2.5)
        peers = [dst for dst, _ in sent]
        assert peers[:3] == [1, 2, 3]
        assert replica.metrics.snapshot()["sync.peer_rotations"] >= 2

    def test_rotation_skips_self(self, donor):
        cluster = build_cluster()
        replica = cluster.replicas[2]
        sent = capture_sends(replica)
        replica.sync.note_missing(donor_chain(donor, 1)[0].id())
        cluster.simulator.run_until(SYNC_RETRY * 4)
        assert 2 not in [dst for dst, _ in sent]

    def test_empty_miss_rotates_immediately(self, donor):
        cluster = build_cluster()
        replica = cluster.replicas[0]
        sent = capture_sends(replica)
        replica.sync.note_missing(donor_chain(donor, 1)[0].id())
        (_, request), = sent
        replica.deliver(1, signed_response(cluster, 1, request.nonce, ()))
        assert [dst for dst, _ in sent] == [1, 2]
        assert replica.metrics.snapshot()["sync.peer_rotations"] == 1

    def test_gives_up_after_attempt_budget(self, donor):
        cluster = build_cluster()
        replica = cluster.replicas[0]
        capture_sends(replica)
        replica.sync.note_missing(donor_chain(donor, 1)[0].id())
        cluster.simulator.run_until(60.0)
        assert replica.sync.inflight() == 0
        assert replica.metrics.snapshot()["sync.requests_sent"] == 3 * (
            replica.config.n - 1
        )


class TestApply:
    def test_valid_chain_inserts_and_resolves(self, donor):
        cluster = build_cluster()
        replica = cluster.replicas[0]
        sent = capture_sends(replica)
        # The chain must reach genesis for the fresh store to accept it.
        tip = donor.replicas[0].store.highest_certified_block()
        full = donor_chain(donor, tip.height)
        replica.sync.note_missing(full[0].id())
        (_, request), = sent
        tip_qc = donor.replicas[0].store.qc_for(full[0].id())
        replica.deliver(
            1, signed_response(cluster, 1, request.nonce, full, tip_qc=tip_qc)
        )
        assert full[0].id() in replica.store
        assert replica.store.is_certified(full[0].id())
        assert replica.sync.inflight() == 0
        assert replica.metrics.snapshot()["sync.blocks_synced"] == len(full)

    def test_deep_gap_chases_missing_parent(self, donor, monkeypatch):
        monkeypatch.setattr(sync_manager, "SYNC_MAX_BLOCKS", 2)
        cluster = build_cluster()
        replica = cluster.replicas[0]
        sent = capture_sends(replica)
        chain = donor_chain(donor, 4)
        replica.sync.note_missing(chain[0].id())
        (_, request), = sent
        # A truncated response (2 blocks) leaves the gap open below.
        replica.deliver(
            1, signed_response(cluster, 1, request.nonce, chain[:2])
        )
        # The manager must immediately chase the still-missing parent.
        followups = [msg for _, msg in sent if isinstance(msg, SyncRequestMsg)]
        assert followups[-1].target == chain[1].parent_id
