"""Concurrent logical clients with f+1-matching-reply acknowledgement.

:class:`ClientFleet` drives sustained request traffic into a running
TCP cluster.  Each logical client opens one connection per replica,
submits deterministic KV commands (the same
:class:`~repro.app.kvstore.KVCommand` stream the simulator-tier
workload uses) to *every* replica's mempool, and accepts a transaction
as committed once ``f + 1`` distinct replicas reply with a matching
``(txid, block_id)`` — the PBFT client rule: at least one of the
reporters is honest, so the commit is final.

Clients are closed-loop with a pipeline window of 1: each client keeps
one request in flight and submits the next on acknowledgement, so fleet
size controls offered concurrency directly.
"""

from __future__ import annotations

import asyncio
import random

from repro.app.kvstore import KVCommand
from repro.rt_net.codec import CodecError, FrameDecoder, encode_frame
from repro.types.messages import ClientReplyMsg, ClientRequestMsg


class _ClientStats:
    __slots__ = ("submitted", "acked", "latencies")

    def __init__(self) -> None:
        self.submitted = 0
        self.acked = 0
        self.latencies: list[float] = []


class ClientFleet:
    """``num_clients`` concurrent logical clients against one cluster."""

    def __init__(
        self,
        endpoints: dict[int, tuple[str, int]],
        f: int,
        num_clients: int = 8,
        seed: int = 0,
        request_timeout: float = 10.0,
    ) -> None:
        self.endpoints = dict(endpoints)
        self.f = f
        self.num_clients = num_clients
        self.seed = seed
        self.request_timeout = request_timeout
        self.stats: dict[int, _ClientStats] = {}

    # ------------------------------------------------------------------
    # aggregate results
    # ------------------------------------------------------------------

    def total_submitted(self) -> int:
        return sum(s.submitted for s in self.stats.values())

    def total_acked(self) -> int:
        return sum(s.acked for s in self.stats.values())

    def latencies(self) -> list[float]:
        out: list[float] = []
        for stats in self.stats.values():
            out.extend(stats.latencies)
        return out

    def summary(self) -> dict:
        latencies = sorted(self.latencies())
        entry = {
            "clients": self.num_clients,
            "submitted": self.total_submitted(),
            "acked": self.total_acked(),
        }
        if latencies:
            entry["latency_p50_s"] = latencies[len(latencies) // 2]
            entry["latency_max_s"] = latencies[-1]
        return entry

    # ------------------------------------------------------------------
    # the fleet
    # ------------------------------------------------------------------

    async def run(self, duration: float) -> dict:
        """Drive all clients for ``duration`` seconds; returns summary."""
        loop = asyncio.get_event_loop()
        stop_at = loop.time() + duration
        tasks = [
            asyncio.create_task(self._client(client_id, stop_at))
            for client_id in range(1, self.num_clients + 1)
        ]
        await asyncio.gather(*tasks, return_exceptions=True)
        return self.summary()

    async def _client(self, client_id: int, stop_at: float) -> None:
        loop = asyncio.get_event_loop()
        stats = self.stats[client_id] = _ClientStats()
        rng = random.Random(f"rt-client:{self.seed}:{client_id}")
        replies: asyncio.Queue = asyncio.Queue()
        writers: dict[int, asyncio.StreamWriter] = {}
        readers: list[asyncio.Task] = []
        hello = encode_frame({"kind": "client", "id": client_id})
        try:
            for replica_id, (host, port) in self.endpoints.items():
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(hello)
                writers[replica_id] = writer
                readers.append(
                    asyncio.create_task(self._reader(reader, replies))
                )
            sequence = 0
            while loop.time() < stop_at:
                command = KVCommand.sample(rng, sequence)
                transaction = command.to_transaction(
                    client_id=client_id,
                    sequence=sequence,
                    submitted_at=0.0,
                )
                sequence += 1
                txid = transaction.txid()
                request = encode_frame(
                    ClientRequestMsg(sender=client_id, transaction=transaction)
                )
                submit_time = loop.time()
                for writer in writers.values():
                    writer.write(request)
                stats.submitted += 1
                acked = await self._await_quorum(
                    replies, txid,
                    min(self.request_timeout, max(0.1, stop_at - loop.time())),
                )
                if acked:
                    stats.acked += 1
                    stats.latencies.append(loop.time() - submit_time)
        except (ConnectionError, OSError):
            pass  # cluster went away under us: report what we have
        finally:
            for task in readers:
                task.cancel()
            for writer in writers.values():
                writer.close()

    async def _await_quorum(self, replies: asyncio.Queue, txid,
                            timeout: float) -> bool:
        """Wait for f+1 matching ``(txid, block_id)`` replies."""
        loop = asyncio.get_event_loop()
        deadline = loop.time() + timeout
        #: block_id hex -> set of replica ids that reported it.
        reporters: dict[str, set[int]] = {}
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            try:
                reply = await asyncio.wait_for(replies.get(), remaining)
            except asyncio.TimeoutError:
                return False
            if reply.txid != txid:
                continue  # stale reply from an earlier timed-out request
            block_hex = reply.block_id.hex()
            group = reporters.setdefault(block_hex, set())
            group.add(reply.sender)
            if len(group) >= self.f + 1:
                return True

    async def _reader(self, reader, replies: asyncio.Queue) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                try:
                    messages = decoder.feed(data)
                except CodecError:
                    return
                for message in messages:
                    if isinstance(message, ClientReplyMsg):
                        replies.put_nowait(message)
        except (ConnectionError, asyncio.CancelledError):
            pass


def drive_fleet(endpoints, f: int, duration: float, **kwargs) -> dict:
    """Synchronous wrapper: run a fleet on a fresh event loop."""
    fleet = ClientFleet(endpoints, f, **kwargs)
    return asyncio.run(fleet.run(duration))
