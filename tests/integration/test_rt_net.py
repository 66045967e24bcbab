"""Real-network runtime: transport round-trips and the sim-vs-TCP oracle.

The headline test runs one :class:`ScenarioSpec` under both tiers —
the deterministic simulator and a real 4-process asyncio TCP cluster —
and requires the committed chains to be literally identical on the
common prefix.  Block ids are content hashes over deterministic fields
only, so the simulator acts as a full correctness oracle for the
networked runtime, not just a statistical reference.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments.spec import load_scenario, spec_to_mapping
from repro.rt_net.clients import ClientFleet
from repro.rt_net.differential import common_prefix_len, run_differential
from repro.rt_net.manager import (
    RuntimeManager,
    RuntimeReport,
    _free_ports,
    unsupported_features,
)
from repro.rt_net.replica_proc import ReplicaHost
from repro.rt_net.transport import TcpTransport, WallClock
from repro.runtime.client import chain_walk
from repro.types.block import Block
from repro.types.messages import ClientReplyMsg, ClientRequestMsg
from repro.types.quorum_cert import QuorumCertificate
from repro.types.transaction import Payload, Transaction

SCENARIO = "scenarios/rt_smoke.toml"


class TestWallClock:
    def test_now_advances_and_timers_fire(self):
        async def scenario():
            clock = WallClock(asyncio.get_event_loop())
            fired = []
            clock.set_timer(0.01, fired.append, "a")
            handle = clock.set_timer(0.01, fired.append, "b")
            clock.cancel_timer(handle)
            before = clock.now
            await asyncio.sleep(0.05)
            assert clock.now > before
            return fired

        assert asyncio.run(scenario()) == ["a"]


class TestTcpTransport:
    def test_peer_roundtrip_and_multicast(self):
        async def scenario():
            host = "127.0.0.1"
            ports = _free_ports(2, host)
            peers = {rid: (host, port) for rid, port in enumerate(ports)}
            inboxes = {0: [], 1: []}
            transports = [
                TcpTransport(
                    rid, peers,
                    on_message=lambda src, msg, rid=rid: inboxes[rid].append(
                        (src, msg)
                    ),
                )
                for rid in (0, 1)
            ]
            for transport in transports:
                await transport.start()
            try:
                message = ClientReplyMsg(sender=0, height=3, round=7)
                transports[0].send(0, 1, message)
                transports[1].multicast(1, message, include_self=True)
                deadline = asyncio.get_event_loop().time() + 5.0
                while (
                    (not inboxes[1] or len(inboxes[0]) < 1
                     or len(inboxes[1]) < 2)
                    and asyncio.get_event_loop().time() < deadline
                ):
                    await asyncio.sleep(0.01)
            finally:
                for transport in transports:
                    await transport.stop()
            return inboxes, message

        inboxes, message = asyncio.run(scenario())
        # 0 → 1 point-to-point, then 1's multicast reaching 0 and itself.
        assert (0, message) in inboxes[1]
        assert (1, message) in inboxes[0]
        assert (1, message) in inboxes[1]

    def test_queued_send_survives_late_listener(self):
        """Sends enqueued before the peer listens arrive after it does."""

        async def scenario():
            host = "127.0.0.1"
            ports = _free_ports(2, host)
            peers = {rid: (host, port) for rid, port in enumerate(ports)}
            received = []
            sender = TcpTransport(0, peers, on_message=lambda *a: None)
            await sender.start()
            message = ClientReplyMsg(sender=0, height=1, round=1)
            sender.send(0, 1, message)  # nobody listening yet
            await asyncio.sleep(0.2)
            receiver = TcpTransport(
                1, peers,
                on_message=lambda src, msg: received.append((src, msg)),
            )
            await receiver.start()
            deadline = asyncio.get_event_loop().time() + 5.0
            while not received and asyncio.get_event_loop().time() < deadline:
                await asyncio.sleep(0.01)
            await sender.stop()
            await receiver.stop()
            return received, message

        received, message = asyncio.run(scenario())
        assert received == [(0, message)]

    def test_detached_transport_sends_nothing(self):
        """After ``unregister(self)`` neither send nor multicast leaves."""

        async def scenario():
            host = "127.0.0.1"
            ports = _free_ports(2, host)
            peers = {rid: (host, port) for rid, port in enumerate(ports)}
            received = []
            transports = [
                TcpTransport(
                    rid, peers,
                    on_message=lambda src, msg: received.append((src, msg)),
                )
                for rid in (0, 1)
            ]
            for transport in transports:
                await transport.start()
            try:
                before = ClientReplyMsg(sender=0, height=1, round=1)
                transports[0].multicast(0, before)
                deadline = asyncio.get_event_loop().time() + 5.0
                while not received and asyncio.get_event_loop().time() < deadline:
                    await asyncio.sleep(0.01)
                transports[0].unregister(0)
                after = ClientReplyMsg(sender=0, height=2, round=2)
                transports[0].multicast(0, after, include_self=True)
                transports[0].send(0, 1, after)
                await asyncio.sleep(0.2)
            finally:
                for transport in transports:
                    await transport.stop()
            return received, before

        received, before = asyncio.run(scenario())
        assert received == [(0, before)]


class TestRuntimeManager:
    def test_rejects_faulty_specs(self):
        faulty = load_scenario(SCENARIO).with_overrides(**{"faults.crash": 1})
        assert unsupported_features(faulty)
        with pytest.raises(ValueError):
            RuntimeManager(faulty)


class TestChainsAgree:
    """``RuntimeReport.chains_agree`` on hand-written result files."""

    @staticmethod
    def _report(*chains):
        results = {
            rid: {"committed": [
                (height, height, block) for height, block in enumerate(chain, 1)
            ]}
            for rid, chain in enumerate(chains)
        }
        return RuntimeReport(load_scenario(SCENARIO), 1, results, 0.0)

    def test_different_block_at_one_height_disagrees(self):
        report = self._report(["aa", "bb", "cc"], ["aa", "bd", "cc"])
        assert not report.chains_agree()

    def test_strict_prefix_agrees(self):
        assert self._report(["aa", "bb", "cc"], ["aa", "bb"]).chains_agree()

    def test_empty_chain_agrees(self):
        assert self._report(["aa", "bb"], []).chains_agree()


class TestProposeOnce:
    """The host's payload source and proposal rule against a hand-built
    block tree (no sockets: the transport is constructed but never
    started).  The host is replica 1, which leads round 1."""

    @staticmethod
    def _make_host(tmp_path, **overrides):
        spec = load_scenario(SCENARIO).with_overrides(**overrides)
        return ReplicaHost(
            {
                "spec": spec_to_mapping(spec),
                "epoch": 0.0,
                "ports": {rid: 1 + rid for rid in range(spec.n)},
                "result_path": str(tmp_path / "result.json"),
            },
            replica_id=1,
        )

    @pytest.fixture
    def host(self, tmp_path):
        host = self._make_host(tmp_path)
        yield host
        host.loop.close()
        asyncio.set_event_loop(None)

    @staticmethod
    def _record_multicasts(host):
        """Everything the host's replica multicasts from now on."""
        messages = []
        host.transport.multicast = (
            lambda src, message, include_self=False: messages.append(message)
        )
        return messages

    @pytest.fixture
    def sent(self, host):
        return self._record_multicasts(host)

    @staticmethod
    def _extend(host, parent, round_number, *transactions):
        store = host.replica.store
        block = Block(
            parent_id=parent.id(), qc=store.qc_for(parent.id()),
            round=round_number, height=parent.height + 1, proposer=0,
            payload=Payload(transactions=transactions),
        )
        store.add_block(block)
        return block

    @staticmethod
    def _commit(host, block):
        """Commit ``block`` and its ancestors, firing the host's listener."""
        host.replica.commit_tracker._commit_through(block, 0.0)

    @staticmethod
    def _request(host, transaction):
        host._on_client_message(
            9, ClientRequestMsg(sender=9, transaction=transaction)
        )

    @staticmethod
    def _enter_round_one(host):
        """Genesis' QC starts round 1, which the host leads."""
        host.replica.pacemaker.advance_on_qc(0)

    @staticmethod
    def _counter(host, name):
        return host.replica.metrics.snapshot()[name]

    @staticmethod
    def _synthetic(payload):
        return payload.transactions == () and payload.batch is not None

    def test_skips_exactly_the_uncommitted_ancestors(self, host):
        late, pending, parent_tx, sibling_tx, fresh = (
            Transaction(client_id=1, sequence=sequence)
            for sequence in range(5)
        )
        # genesis - first - second - parent   <- the proposal extends this
        #                        \_ sibling  (abandoned)
        first = self._extend(host, host.replica.genesis, 1, late)
        second = self._extend(host, first, 2, pending)
        parent = self._extend(host, second, 3, parent_tx)
        self._extend(host, second, 4, sibling_tx)
        self._commit(host, first)
        # `late`'s request frame arrives after its block committed; the
        # rest were pending all along.
        for transaction in (late, pending, parent_tx, sibling_tx, fresh):
            self._request(host, transaction)

        payload = host._payload_source(0.0, parent.id())
        # Not walked below the last commit, not excluded on the
        # abandoned sibling; excluded on the uncommitted path.
        assert payload.transactions == (late, sibling_tx, fresh)

        # Once `second` commits its transaction is gone from the mempool
        # rather than excluded; `late` was not pending at its commit, so
        # the counts show two carried and one distinct.
        self._commit(host, second)
        assert (host.txs_carried, host.txs_distinct) == (2, 1)
        assert host._payload_source(0.0, parent.id()).transactions == (
            late, sibling_tx, fresh,
        )
        carried, _needed = chain_walk(host.replica, parent.id())
        assert carried == {parent_tx.txid()}

    def test_reply_leaves_before_truncation_prunes_the_block(self, host):
        transaction = Transaction(client_id=1, sequence=0)
        self._request(host, transaction)
        replies = []
        host.transport.send_to_client = (
            lambda client_id, message: replies.append((client_id, message))
        )
        # A certified 3-chain at consecutive rounds commits its head.
        store = host.replica.store
        block, chain = host.replica.genesis, []
        for round_number in (1, 2, 3):
            block = self._extend(
                host, block, round_number,
                *((transaction,) if round_number == 1 else ()),
            )
            qc = QuorumCertificate(
                block_id=block.id(), round=block.round, height=block.height,
            )
            store.record_qc(qc)
            chain.append(block)
        head, _middle, tip = chain
        host.replica.commit_tracker.on_new_qc(qc, 0.0)
        # A stable checkpoint at the tip prunes the head at once, before
        # any timer of the host's has run.
        store.truncate_below(tip.id())
        assert head.id() not in store
        assert replies == [(9, ClientReplyMsg(
            sender=1, txid=transaction.txid(), block_id=head.id(),
            height=head.height, round=head.round,
        ))]
        assert host.mempool.pending_count() == 0
        assert host.committed[-1] == (1, 1, head.id().hex())

    def test_idle_host_defers_and_multicasts_nothing(self, host, sent):
        assert host._payload_source(0.0, host.replica.genesis.id()) is None
        self._enter_round_one(host)
        assert sent == []
        assert host.replica.deferred_round == 1
        assert self._counter(host, "proposals_deferred") == 1
        assert self._counter(host, "blocks_proposed") == 0

    def test_request_wakes_one_proposal_with_the_whole_batch(self, host, sent):
        self._enter_round_one(host)
        batch = tuple(
            Transaction(client_id=1, sequence=sequence) for sequence in range(3)
        )
        for transaction in batch:
            self._request(host, transaction)
        assert sent == []  # not inside the read that delivered them
        host.loop.run_until_complete(asyncio.sleep(0))
        assert len(sent) == 1
        assert sent[0].round == 1
        assert sent[0].block.payload.transactions == batch
        assert host.replica.deferred_round is None

    def test_transaction_three_deep_proposes_four_deep_defers(self, host):
        genesis = host.replica.genesis
        transaction = Transaction(client_id=1, sequence=0)
        head = self._extend(host, genesis, 1, transaction)
        middle = self._extend(host, head, 2)
        tip = self._extend(host, middle, 3)
        beyond = self._extend(host, tip, 4)
        # The QC for `tip` completed head's 3-chain here; the proposal
        # extending `tip` carries it to everyone else.
        self._commit(host, head)
        assert self._synthetic(host._payload_source(0.0, tip.id()))
        assert host._payload_source(0.0, beyond.id()) is None

    def test_uncommitted_transaction_behind_a_tc_gap_proposes(self, host):
        transaction = Transaction(client_id=1, sequence=0)
        block = self._extend(host, host.replica.genesis, 1, transaction)
        for round_number in (3, 5, 6):  # no three consecutive rounds
            block = self._extend(host, block, round_number)
        assert self._synthetic(host._payload_source(0.0, block.id()))

    def test_heartbeat_forces_the_synthetic_batch(self, host, sent):
        self._enter_round_one(host)
        host._heartbeat()
        assert len(sent) == 1 and self._synthetic(sent[0].block.payload)
        assert host.replica.deferred_round is None
        assert self._counter(host, "blocks_proposed") == 1

    def test_stale_deferral_is_dropped(self, host, sent):
        self._enter_round_one(host)
        host.replica.pacemaker.advance_on_qc(1)  # round 2: replica 2 leads
        host.replica.propose_deferred(force=True)
        assert sent == []
        assert host.replica.deferred_round is None

    def test_streamlet_never_defers(self, tmp_path):
        host = self._make_host(tmp_path, protocol="sft-streamlet")
        sent = self._record_multicasts(host)
        try:
            host.replica._enter_round(1)
        finally:
            host.loop.close()
            asyncio.set_event_loop(None)
        assert len(sent) == 1 and self._synthetic(sent[0].block.payload)
        assert self._counter(host, "proposals_deferred") == 0

    def test_unknown_parent_excludes_nothing(self, host):
        transaction = Transaction(client_id=1, sequence=0)
        self._request(host, transaction)
        orphan = Block(
            parent_id=host.replica.genesis.id(), qc=None, round=1, height=1,
            proposer=0,
        )
        assert host._payload_source(0.0, orphan.id()).transactions == (
            transaction,
        )


class TestDifferential:
    """One spec, both tiers, identical committed chains."""

    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        spec = load_scenario(SCENARIO)
        return run_differential(
            spec,
            tcp_duration=3.0,
            workdir=tmp_path_factory.mktemp("rt-diff"),
        )

    def test_chains_identical_on_common_prefix(self, result):
        assert result.ok(), result.problems()
        reference = result.tcp_reference()
        agreed = common_prefix_len(result.sim, reference)
        assert agreed == min(len(result.sim), len(reference))
        assert agreed >= 10, "prefix too short to be meaningful"

    def test_every_tcp_replica_committed(self, result):
        assert result.report.min_commits() >= 1
        assert result.report.chains_agree()

    def test_idle_leaders_defer(self, result):
        summary = result.report.summary()
        assert summary["proposals_deferred"] > 0
        assert summary["blocks_proposed"] > 0


class TestClientFleet:
    @staticmethod
    def _drive(spec, tmp_path, num_clients, duration):
        manager = RuntimeManager(spec, workdir=tmp_path)
        try:
            manager.start()
            manager.wait_ready()
            fleet = ClientFleet(
                manager.endpoints(),
                f=spec.resolved_f(),
                num_clients=num_clients,
                seed=manager.seed,
            )
            asyncio.run(fleet.run(duration))
            report = manager.stop()
        finally:
            manager.cleanup()
        return fleet, report

    def test_requests_acknowledged_at_f_plus_1(self, tmp_path):
        fleet, report = self._drive(
            load_scenario(SCENARIO), tmp_path, num_clients=2, duration=2.0
        )
        assert fleet.total_submitted() > 0
        assert fleet.total_acked() > 0
        assert report.total_replies() >= fleet.total_acked()
        assert report.chains_agree()
        # Each request is proposed once.  The slack is CI's: a request
        # frame that reaches a replica after that transaction's block
        # committed there is carried once more.
        assert report.txs_distinct() > 0
        assert report.txs_carried() <= 1.05 * report.txs_distinct()

    def test_checkpoint_truncation_loses_no_reply(self, tmp_path):
        # Truncation prunes committed blocks as the run goes; replies
        # leave at commit, so none is lost and none is proposed again.
        spec = load_scenario(SCENARIO).with_overrides(checkpoint_interval=8)
        fleet, report = self._drive(spec, tmp_path, num_clients=4, duration=3.0)
        assert fleet.total_submitted() > 0
        assert fleet.total_acked() == fleet.total_submitted()
        assert report.chains_agree()
        assert len(report.results) == spec.n
        for result in report.results.values():
            assert result["metrics"]["checkpoint.blocks_truncated"] > 0
        assert report.txs_distinct() > 0
        assert report.txs_carried() <= 1.05 * report.txs_distinct()
