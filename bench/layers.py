"""Micro-benchmarks: one public call per layer, timed from outside.

Every metric is microseconds per call, the median of BATCHES batches,
on inputs generated from the seed, put at reference speed by the speed
measured while its group of metrics ran (see speed.py).  Inputs that
the program memoizes on (block ids, vote signing payloads, the HMAC
verification memo) are built fresh for every call, so "cold" means
what a replica process pays the first time it sees an object off the
wire.
"""

from __future__ import annotations

import asyncio
import random
import socket
import statistics
import time

from repro.app.kvstore import KVCommand, KVStateMachine
from repro.core.commit_rules import CommitTracker
from repro.core.endorsement import EndorsementTracker
from repro.core.strong_vote import VotingHistory
from repro.crypto.registry import KeyRegistry
from repro.net.network import Network, NetworkConfig
from repro.net.simulator import Simulator
from repro.net.topology import UniformTopology
from repro.obs.flight import FlightRecorder
from repro.obs.trace import TraceLog, Tracer
from repro.rt_net.codec import decode_message, encode_frame, encode_message
from repro.rt_net.transport import TcpTransport
from repro.runtime.client import Mempool
from repro.types.block import Block, make_genesis
from repro.types.chain import BlockStore
from repro.types.messages import (
    ClientReplyMsg,
    ClientRequestMsg,
    ProposalMsg,
    VoteMsg,
)
from repro.types.quorum_cert import QuorumCertificate
from repro.types.transaction import Payload
from repro.types.vote import StrongVote
from repro.types.wal import DurableState

from speed import SpeedMeter

BATCHES = 7


def per_call_us(call, batches) -> float:
    """Median over ``batches`` of the mean time of ``call(item)``.

    This thread's CPU time: the speed meter's thread takes the GIL for
    a fraction of a millisecond now and then, which is not the call's.
    """
    clock = time.thread_time
    samples = []
    for items in batches:
        started = clock()
        for item in items:
            call(item)
        samples.append((clock() - started) / len(items) * 1e6)
    return statistics.median(samples)


def _same(item, calls: int) -> list:
    return [[item] * calls] * BATCHES


def _transactions(rng: random.Random, count: int) -> list:
    return [
        KVCommand(
            op="set", key=f"k{rng.randrange(256)}", value=rng.randbytes(26).hex()
        ).to_transaction(1, sequence)
        for sequence in range(count)
    ]


def _votes(registry, block: Block, voters: int) -> tuple:
    votes = []
    for voter in range(voters):
        vote = StrongVote(block.id(), block.round, block.height, voter)
        signature = registry.signing_key(voter).sign(vote.signing_payload())
        # Rebuilt with the signature and, deliberately, an empty
        # signing-payload cache.
        votes.append(StrongVote(
            block.id(), block.round, block.height, voter, signature=signature
        ))
    return tuple(votes)


def _chain(registry, length: int, voters: int, transactions=()) -> tuple:
    """A fork-free chain: ``(genesis, genesis_qc, blocks, qcs)``.

    ``qcs[i]`` certifies ``blocks[i]`` with ``voters`` signed strong-votes.
    """
    genesis, genesis_qc = make_genesis()
    blocks, qcs = [], []
    parent, parent_qc = genesis, genesis_qc
    for index in range(length):
        block = Block(
            parent_id=parent.id(), qc=parent_qc, round=index + 1,
            height=index + 1, proposer=index % voters,
            payload=Payload(transactions=tuple(transactions)),
        )
        qc = QuorumCertificate(
            block.id(), block.round, block.height, _votes(registry, block, voters)
        )
        blocks.append(block)
        qcs.append(qc)
        parent, parent_qc = block, qc
    return genesis, genesis_qc, blocks, qcs


def _store(genesis, genesis_qc, blocks) -> BlockStore:
    store = BlockStore(genesis, genesis_qc)
    for block in blocks:
        store.add_block(block)
    return store


def _codec(rng, registry) -> dict:
    txs = _transactions(rng, 256)
    _g, _gqc, blocks, qcs = _chain(registry, 2, 3, txs)
    proposal = ProposalMsg(sender=1, round=2, block=blocks[1])
    vote = VoteMsg(sender=0, vote=qcs[1].votes[0])
    request = ClientRequestMsg(sender=1, transaction=txs[0])
    reply = ClientReplyMsg(
        sender=0, txid=txs[0].txid(), block_id=blocks[1].id(), height=2, round=2
    )
    out = {}
    for name, message, calls in (
        ("proposal256", proposal, 10),
        ("vote", vote, 300),
        ("clientreq", request, 300),
        ("reply", reply, 300),
    ):
        body = encode_message(message)
        if decode_message(body) != message:
            raise AssertionError(f"codec round trip changed the {name} message")
        out[f"codec.enc_{name}_us"] = per_call_us(encode_frame, _same(message, calls))
        out[f"codec.dec_{name}_us"] = per_call_us(decode_message, _same(body, calls))
    out["codec.proposal256_bytes"] = float(len(encode_frame(proposal)))
    out["codec.vote_bytes"] = float(len(encode_frame(vote)))
    return out


def _crypto(rng, registry) -> dict:
    out = {}
    key = registry.signing_key(0)
    message = rng.randbytes(100)
    signature = key.sign(message)
    out["crypto.sign_us"] = per_call_us(key.sign, _same(message, 500))
    txs = _transactions(rng, 256)
    out["crypto.txid_us"] = per_call_us(
        lambda tx: tx.txid(), [txs] * BATCHES
    )
    _g, _gqc, blocks, _qcs = _chain(registry, 1, 1, txs)
    template = blocks[0]
    fresh_blocks = [
        [
            Block(template.parent_id, template.qc, 1, 1, batch * 10 + k,
                  payload=template.payload)
            for k in range(10)
        ]
        for batch in range(BATCHES)
    ]
    out["crypto.block_id256_us"] = per_call_us(lambda b: b.id(), fresh_blocks)

    qc_batches = [
        [_votes(registry, template, 32) for _ in range(10)]
        for _ in range(BATCHES)
    ]
    memoize = KeyRegistry.memoize
    KeyRegistry.memoize = False
    try:
        out["crypto.verify_cold_us"] = per_call_us(
            lambda m: registry.verify(m, signature), _same(message, 500)
        )
        out["crypto.verify_qc32_cold_us"] = per_call_us(
            lambda votes: registry.verify_qc_votes(votes, 32), qc_batches
        )
    finally:
        KeyRegistry.memoize = memoize
    return out


def _chain_and_core(registry) -> dict:
    out = {}
    genesis, genesis_qc, blocks, qcs = _chain(registry, 128, 32)

    def with_fresh(make_state, items) -> list:
        """Batches of ``(state, item)`` pairs, one new state per batch."""
        batches = []
        for _ in range(BATCHES):
            state = make_state()
            batches.append([(state, item) for item in items])
        return batches

    out["store.insert_us"] = per_call_us(
        lambda pair: pair[0].add_block(pair[1]),
        with_fresh(lambda: BlockStore(genesis, genesis_qc), blocks),
    )
    # One truncation drops the 120 oldest of 128 blocks.
    out["store.truncate_us"] = per_call_us(
        lambda store: store.truncate_below(blocks[120].id()),
        [[_store(genesis, genesis_qc, blocks) for _ in range(5)]
         for _ in range(BATCHES)],
    )

    store = _store(genesis, genesis_qc, blocks)
    batches = with_fresh(lambda: EndorsementTracker(store), qcs)
    out["endorse.add_qc32_us"] = per_call_us(
        lambda pair: pair[0].add_strong_qc(pair[1]), batches
    )
    if batches[0][0][0].count(blocks[0].id()) != 32:
        raise AssertionError("endorsement micro-benchmark counted no endorsers")

    batches = with_fresh(lambda: CommitTracker(store, f=10), qcs)
    out["commit.on_new_qc_us"] = per_call_us(
        lambda pair: pair[0].on_new_qc(pair[1], 0.0), batches
    )
    if not batches[0][0][0].commit_order:
        raise AssertionError("commit micro-benchmark committed nothing")

    def vote(pair) -> None:
        history, block = pair
        history.marker_for(block)
        history.record_vote(block)

    out["vote.marker_us"] = per_call_us(
        vote, with_fresh(lambda: VotingHistory(store), blocks)
    )
    return out


def _net(registry) -> dict:
    out = {}
    events = 20_000

    def drain(simulator):
        for index in range(events):
            simulator.schedule_fire(index * 1e-6, int)
        simulator.run_until_idle()

    out["simulator.event_us"] = per_call_us(
        drain, [[Simulator()] for _ in range(BATCHES)]
    ) / events

    _g, _gqc, _blocks, qcs = _chain(registry, 1, 1)
    message = VoteMsg(sender=0, vote=qcs[0].votes[0])
    network = Network(
        Simulator(), UniformTopology(4, 0.01), NetworkConfig(jitter=0.002, seed=1)
    )
    out["network.send_us"] = per_call_us(
        lambda m: network.send(0, 1, m), _same(message, 2000)
    )
    return out


def _mempool(rng) -> dict:
    out = {}
    txs = _transactions(rng, 10_000)
    out["mempool.submit_us"] = per_call_us(
        lambda pool: [pool.submit(tx) for tx in txs[:2000]],
        [[Mempool()] for _ in range(BATCHES)],
    ) / 2000

    def filled(pipelined: bool) -> Mempool:
        pool = Mempool(max_block_transactions=256, pipelined=pipelined,
                       inflight_timeout=1e9)
        for tx in txs:
            pool.submit(tx)
        return pool

    plain = filled(False)
    out["mempool.payload10k_us"] = per_call_us(
        plain.make_payload, _same(0.0, 20)
    )
    # Consecutive pipelined drains each skip everything still in flight.
    out["mempool.payload10k_pipelined_us"] = per_call_us(
        lambda pool: [pool.make_payload(0.0) for _ in range(20)],
        [[filled(True)] for _ in range(BATCHES)],
    ) / 20
    slices = [txs[start:start + 256] for start in range(0, 256 * 20, 256)]
    out["mempool.remove256_us"] = per_call_us(
        lambda pool: [pool.remove_committed(chunk) for chunk in slices],
        [[filled(False)] for _ in range(BATCHES)],
    ) / len(slices)
    return out


def _small_layers(rng, registry) -> dict:
    out = {}
    _g, _gqc, blocks, qcs = _chain(registry, 1, 1)
    block_id, vote = blocks[0].id(), qcs[0].votes[0]
    out["wal.record_vote_us"] = per_call_us(
        lambda state: [state.record_vote(r, block_id, vote) for r in range(2000)],
        [[DurableState(0)] for _ in range(BATCHES)],
    ) / 2000

    def emits(tracer: Tracer) -> float:
        return per_call_us(
            lambda r: tracer.emit(0.5, "vote", round=r, height=r, block="ab12"),
            [range(2000)] * BATCHES,
        )

    out["flight.record_us"] = emits(Tracer(0, flight=FlightRecorder()))
    out["tracer.emit_spans_us"] = emits(
        Tracer(0, TraceLog(), FlightRecorder(), level="spans")
    )
    # trace_level="full" logs every delivery, so its log runs at
    # capacity and each append also evicts: that is the path timed here.
    out["tracer.emit_full_us"] = emits(
        Tracer(0, TraceLog(capacity=1000), FlightRecorder(), level="full")
    )

    txs = _transactions(rng, 2000)
    out["kv.apply_us"] = per_call_us(
        lambda machine: [machine.apply_transaction(tx) for tx in txs],
        [[KVStateMachine()] for _ in range(BATCHES)],
    ) / len(txs)
    return out


def _free_ports(count: int) -> list:
    sockets = [socket.socket() for _ in range(count)]
    try:
        for sock in sockets:
            sock.bind(("127.0.0.1", 0))
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


async def _transport(registry) -> dict:
    """Two TcpTransports on one loop over localhost."""
    loop = asyncio.get_running_loop()
    _g, _gqc, _blocks, qcs = _chain(registry, 1, 1)
    message = VoteMsg(sender=0, vote=qcs[0].votes[0])
    ports = _free_ports(2)
    peers = {rid: ("127.0.0.1", port) for rid, port in enumerate(ports)}
    state = {"echo": True, "seen": 0, "want": 0, "done": None}

    def arrived() -> None:
        state["seen"] += 1
        if state["seen"] == state["want"]:
            state["done"].set_result(None)

    def on_a(_src, _message) -> None:
        arrived()
        if state["seen"] < state["want"]:
            a.send(0, 1, message)

    def on_b(_src, _message) -> None:
        if state["echo"]:
            b.send(1, 0, message)
        else:
            arrived()

    a = TcpTransport(0, peers, on_message=on_a, loop=loop)
    b = TcpTransport(1, peers, on_message=on_b, loop=loop)
    await a.start()
    await b.start()
    try:
        async def expect(count: int, echo: bool) -> None:
            state.update(echo=echo, seen=0, want=count, done=loop.create_future())

        rtts, oneways, enqueues = [], [], []
        for batch in range(BATCHES + 1):  # the first batch connects
            await expect(200, True)
            started = time.perf_counter()
            a.send(0, 1, message)
            await state["done"]
            rtts.append((time.perf_counter() - started) / 200 * 1e6)

            await expect(2000, False)
            started = time.perf_counter()
            for _ in range(2000):
                a.send(0, 1, message)
            enqueued = time.perf_counter()
            await state["done"]
            oneways.append(2000 / (time.perf_counter() - started))
            enqueues.append((enqueued - started) / 2000 * 1e6)
    finally:
        await a.stop()
        await b.stop()
        # The accepting sides see end-of-stream and return on their own;
        # without this turn of the loop they are cancelled mid-read.
        await asyncio.sleep(0.05)
    return {
        "transport.rtt_us": statistics.median(rtts[1:]),
        "transport.oneway_frames_per_s": statistics.median(oneways[1:]),
        "transport.send_enqueue_us": statistics.median(enqueues[1:]),
    }


def run(seed: int) -> dict:
    """Every micro metric, by name, at reference speed."""
    rng = random.Random(f"bench-layers:{seed}")
    registry = KeyRegistry(32)
    groups = (
        lambda: _codec(rng, registry),
        lambda: _crypto(rng, registry),
        lambda: _chain_and_core(registry),
        lambda: _net(registry),
        lambda: _mempool(rng),
        lambda: _small_layers(rng, registry),
        lambda: asyncio.run(_transport(registry)),
    )
    out = {}
    with SpeedMeter() as meter:
        for group in groups:
            meter.restart()
            values = group()
            speed = meter.mark()
            for name, value in values.items():
                if name.endswith("_us"):
                    value *= speed
                elif name.endswith("_per_s"):
                    value /= speed
                out[name] = value
    return out
