"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

import pytest

from repro.core.intervals import IntervalSet
from repro.core.strong_vote import _key_of
from repro.crypto.registry import KeyRegistry
from repro.types.block import Block, BlockId, make_genesis
from repro.types.chain import BlockStore
from repro.types.quorum_cert import QuorumCertificate
from repro.types.transaction import Payload, TxBatch
from repro.types.vote import StrongVote, Vote


class ChainBuilder:
    """Constructs block trees directly against a BlockStore.

    Unit tests for the SFT core need precise control over rounds,
    heights, forks, voters and markers without running a network; this
    builder provides that with one-liners.
    """

    def __init__(self, f: int = 1) -> None:
        self.f = f
        self.n = 3 * f + 1
        genesis, genesis_qc = make_genesis()
        self.genesis = genesis
        self.genesis_qc = genesis_qc
        self.store = BlockStore(genesis, genesis_qc)
        self._tags = 0

    def quorum(self) -> int:
        return 2 * self.f + 1

    def block(
        self,
        parent: Block,
        round_number: int,
        proposer: int = 0,
        created_at: float = 0.0,
    ) -> Block:
        """Create and store a block extending ``parent``."""
        self._tags += 1
        parent_qc = self.store.qc_for(parent.id())
        block = Block(
            parent_id=parent.id(),
            qc=parent_qc,
            round=round_number,
            height=parent.height + 1,
            proposer=proposer,
            payload=Payload(batch=TxBatch(count=1, size_bytes=64, tag=self._tags)),
            created_at=created_at,
        )
        self.store.add_block(block)
        return block

    def vote(self, block: Block, voter: int, marker: int = 0, intervals=()) -> StrongVote:
        return StrongVote(
            block_id=block.id(),
            block_round=block.round,
            height=block.height,
            voter=voter,
            marker=marker,
            intervals=tuple(intervals),
        )

    def plain_vote(self, block: Block, voter: int) -> Vote:
        return Vote(
            block_id=block.id(),
            block_round=block.round,
            height=block.height,
            voter=voter,
        )

    def certify(self, block: Block, voters=None, markers=None) -> QuorumCertificate:
        """Create, record, and return a QC for ``block``.

        ``markers`` maps voter id to marker (default 0 for everyone).
        """
        if voters is None:
            voters = range(self.quorum())
        markers = markers or {}
        votes = tuple(
            self.vote(block, voter, marker=markers.get(voter, 0))
            for voter in voters
        )
        qc = QuorumCertificate(
            block_id=block.id(),
            round=block.round,
            height=block.height,
            votes=votes,
        )
        self.store.record_qc(qc)
        return qc

    def chain(self, parent: Block, rounds) -> list:
        """Extend ``parent`` with one block per round number, certifying each."""
        blocks = []
        cursor = parent
        for round_number in rounds:
            block = self.block(cursor, round_number)
            self.certify(block)
            blocks.append(block)
            cursor = block
        return blocks


class BruteForceEndorsementOracle:
    """Reference implementation: recompute endorsements from a vote log.

    Quadratic and allocation-heavy — certifies that
    :class:`~repro.core.endorsement.EndorsementTracker`'s early-stopping
    walks are exact.
    """

    def __init__(self, store: BlockStore, mode: str = "round") -> None:
        self._store = store
        self._mode = mode
        self._votes: list = []

    def add_vote(self, vote) -> None:
        self._votes.append(vote)

    def endorsers(self, block_id: BlockId, k: int | None = None) -> frozenset:
        """Endorsers of ``block_id`` (``k`` overrides the threshold)."""
        block = self._store.maybe_get(block_id)
        if block is None:
            return frozenset()
        threshold = k
        if threshold is None:
            threshold = block.round if self._mode == "round" else block.height
        result = set()
        for vote in self._votes:
            if vote.block_id not in self._store:
                continue
            if vote.block_id == block_id:
                result.add(vote.voter)
                continue
            if not self._store.is_ancestor(block_id, vote.block_id):
                continue
            if vote.intervals:
                if any(lo <= threshold <= hi for lo, hi in vote.intervals):
                    result.add(vote.voter)
            elif vote.conflicts_marker() < threshold:
                result.add(vote.voter)
        return frozenset(result)

    def count(self, block_id: BlockId, k: int | None = None) -> int:
        return len(self.endorsers(block_id, k))


def marker_brute_force(history, block: Block) -> int:
    """Oracle: recompute ``history``'s marker from its full vote log."""
    block_id = block.id()
    marker = 0
    for voted_id in history._all_votes:
        if history._store.conflicts(voted_id, block_id):
            marker = max(
                marker, _key_of(history._store.get(voted_id), history._mode)
            )
    return marker


def intervals_brute_force(
    history, block: Block, window: int | None = None
) -> IntervalSet:
    """Oracle: intervals from the full vote log, one D per voted block.

    Uses every voted conflicting block (not just tips); the result
    must equal :meth:`VotingHistory.intervals_for` because each voted
    block's exclusion interval is contained in its tip's.
    """
    block_id = block.id()
    r = _key_of(block, history._mode)
    lo = 1 if window is None else max(1, r - window)
    base = IntervalSet.single(lo, r)
    excluded = []
    for voted_id in history._all_votes:
        if not history._store.conflicts(voted_id, block_id):
            continue
        voted = history._store.get(voted_id)
        ancestor = history._store.common_ancestor(block_id, voted_id)
        excluded.append(
            (_key_of(ancestor, history._mode) + 1, _key_of(voted, history._mode))
        )
    return base.subtract(IntervalSet.from_pairs(excluded))


def store_root(store: BlockStore) -> Block:
    """The store's effective root: genesis, or the last truncation root."""
    return list(store.iter_ancestors(store.highest_certified_id))[-1]


def ancestor_at_height(store: BlockStore, block_id: BlockId, height: int) -> Block:
    """The ancestor of ``block_id`` at ``height``."""
    return next(
        block for block in store.iter_ancestors(block_id)
        if block.height == height
    )


def double_votes(state) -> list:
    """Rounds with conflicting entries in a ``DurableState``'s vote log
    (should be empty)."""
    seen: dict = {}
    bad = []
    for round_number, block_id in state.vote_log:
        prior = seen.setdefault(round_number, block_id)
        if prior != block_id:
            bad.append(round_number)
    return bad


@pytest.fixture
def builder() -> ChainBuilder:
    return ChainBuilder(f=1)


@pytest.fixture
def builder_f2() -> ChainBuilder:
    return ChainBuilder(f=2)


@pytest.fixture
def registry() -> KeyRegistry:
    return KeyRegistry(4)


def small_experiment(seed: int = 42, **overrides):
    """A fast SFT-DiemBFT scenario for integration tests: the spec
    defaults (n=7, uniform 10 ms links, 10-txn blocks) for 8 simulated
    seconds under one seed."""
    from repro.experiments.spec import ScenarioSpec

    return ScenarioSpec(**{"duration": 8.0, "seeds": (seed,), **overrides})


def make_isolated_replica(replica_class, config, replica_id=0):
    """A replica wired to a throwaway network holding only itself.

    Returns ``(replica, registry, simulator, sent)``: the registry
    signs on behalf of the absent peers, the simulator fires the
    replica's timers, and ``sent`` collects everything the replica puts
    on the wire as ``(dst, message)`` pairs (``dst`` is ``"all"`` for a
    multicast) instead of delivering it.
    """
    from repro.net.network import Network, NetworkConfig
    from repro.net.sim import SimClock, SimTransport
    from repro.net.simulator import Simulator
    from repro.net.topology import UniformTopology
    from repro.protocols.base import ReplicaContext

    simulator = Simulator()
    network = Network(simulator, UniformTopology(config.n), NetworkConfig())
    registry = KeyRegistry(config.n)
    context = ReplicaContext(
        replica_id, SimTransport(network), SimClock(simulator), registry
    )
    sent = []
    context.send = lambda dst, message: sent.append((dst, message))
    context.multicast = lambda message, include_self=True: sent.append(
        ("all", message)
    )
    replica = replica_class(config, context)
    network.register(replica_id, replica)
    return replica, registry, simulator, sent
