"""The one peer-fetch loop, under both managers' settings.

Block-sync and snapshot transfer share :class:`~repro.sync.fetch.
PeerFetcher`; these cases pin its rotation order, attempt budget, nonce
discipline and retry delay through each manager's own requests, on an
isolated replica 2 of ``n = 4`` whose timers the test fires.
"""

from dataclasses import dataclass, replace

import pytest

from repro.protocols.base import ReplicaConfig
from repro.protocols.diembft import DiemBFTReplica
from repro.sync.checkpoint import state_digest
from repro.sync.manager import SYNC_RETRY
from repro.types.block import Block
from repro.types.messages import (
    CheckpointMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
    SyncRequestMsg,
    SyncResponseMsg,
)
from tests.conftest import make_isolated_replica

REPLICA = 2
N = 4
INTERVAL = 4


def genesis_child(replica, height):
    genesis = replica.genesis
    return Block(
        parent_id=genesis.id(), qc=replica.store.qc_for(genesis.id()),
        round=height, height=height, proposer=0,
    )


def start_block_fetch(replica, registry):
    """A proposal-style staleness signal for an unknown block."""
    del registry
    block = genesis_child(replica, 1)
    replica.sync.note_missing(block.id())
    return block


def start_snapshot_fetch(replica, registry):
    """2f + 1 checkpoint digests two intervals ahead of replica 2."""
    block = genesis_child(replica, 2 * INTERVAL)
    digest = state_digest(block.height, block.id(), (), ())
    for signer in (0, 1, 3):
        msg = CheckpointMsg(
            sender=signer, height=block.height, block_id=block.id(),
            digest=digest,
        )
        signature = registry.signing_key(signer).sign(msg.signing_payload())
        replica.deliver(signer, replace(msg, signature=signature))
    return block


def signed_miss(registry, message_type, peer, nonce):
    """An honest "I don't have it" answer from ``peer``."""
    msg = message_type(sender=peer, nonce=nonce)
    signature = registry.signing_key(peer).sign(msg.signing_payload())
    return replace(msg, signature=signature)


@dataclass(frozen=True)
class Setting:
    name: str
    retry_multiplier: float
    rotations: str
    request_type: type
    response_type: type
    start: object  # (replica, registry) -> the block that resolves it
    fetcher: object  # replica -> PeerFetcher
    resolve: object  # (store, block): the block arrives out of band


SETTINGS = (
    Setting(
        "block-sync", 1.0, "sync.peer_rotations", SyncRequestMsg,
        SyncResponseMsg, start_block_fetch,
        lambda replica: replica.sync._fetcher,
        lambda store, block: store.add_block(block),
    ),
    Setting(
        "snapshot", 4.0, "checkpoint.peer_rotations", SnapshotRequestMsg,
        SnapshotResponseMsg, start_snapshot_fetch,
        lambda replica: replica.checkpoint._fetcher,
        # Two intervals above genesis: only a new root can hold it.
        lambda store, block: store.adopt_root(block),
    ),
)


class Harness:
    def __init__(self, setting):
        config = ReplicaConfig(
            n=N, f=1, round_timeout=1000.0, checkpoint_interval=INTERVAL
        )
        replica, registry, simulator, sent = make_isolated_replica(
            DiemBFTReplica, config, replica_id=REPLICA
        )
        self.setting = setting
        self.replica = replica
        self.registry = registry
        self.simulator = simulator
        self.sent = sent
        self.delay = setting.retry_multiplier * SYNC_RETRY
        self.fetcher = setting.fetcher(replica)
        self.block = setting.start(replica, registry)

    def requests(self):
        return [
            (dst, msg) for dst, msg in self.sent
            if isinstance(msg, self.setting.request_type)
        ]

    def peers(self):
        return [dst for dst, _ in self.requests()]

    def rotations(self):
        return self.replica.metrics.get(self.setting.rotations).value

    def miss(self, peer, nonce):
        self.replica.deliver(
            peer,
            signed_miss(self.registry, self.setting.response_type, peer, nonce),
        )


@pytest.fixture(params=SETTINGS, ids=[setting.name for setting in SETTINGS])
def harness(request):
    return Harness(request.param)


def test_first_peer_is_the_next_id(harness):
    assert harness.peers() == [(REPLICA + 1) % N]


def test_rotation_skips_self(harness):
    harness.simulator.run_until(3.5 * harness.delay)
    assert harness.peers() == [3, 0, 1, 3]
    assert harness.rotations() == 3


def test_attempt_budget_drops_the_fetch(harness):
    harness.simulator.run_until(40 * harness.delay)
    assert len(harness.requests()) == 3 * (N - 1)
    assert harness.rotations() == 3 * (N - 1) - 1
    assert not harness.fetcher.inflight


def test_retry_with_a_stale_nonce_is_ignored(harness):
    (_, first), = harness.requests()
    harness.miss(3, first.nonce)  # rotates at once, bumping the nonce
    assert harness.peers() == [3, 0]
    (fetch,) = harness.fetcher.inflight.values()
    harness.fetcher._retry(fetch.target, first.nonce)
    assert harness.peers() == [3, 0]
    assert fetch.attempts == 2


def test_response_with_a_stale_nonce_is_ignored(harness):
    (_, first), = harness.requests()
    harness.miss(3, first.nonce)
    assert harness.peers() == [3, 0]
    harness.miss(0, first.nonce)  # the right peer, an old attempt's nonce
    assert harness.peers() == [3, 0]
    assert harness.rotations() == 1


def test_resolved_fetch_ends_without_a_send(harness):
    harness.setting.resolve(harness.replica.store, harness.block)
    harness.simulator.run_until(1.5 * harness.delay)
    assert harness.peers() == [3]
    assert harness.rotations() == 0
    assert not harness.fetcher.inflight


def test_retry_delay_is_the_managers_multiple_of_sync_retry(harness):
    # harness.delay is 1x SYNC_RETRY for block-sync, 4x for snapshots.
    harness.simulator.run_until(0.99 * harness.delay)
    assert harness.peers() == [3]
    harness.simulator.run_until(1.01 * harness.delay)
    assert harness.peers() == [3, 0]
