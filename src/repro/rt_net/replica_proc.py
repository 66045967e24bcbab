"""Per-replica OS process entry point for the real-network runtime.

``python -m repro.rt_net.replica_proc <config.json> <replica_id>``
builds, through :func:`~repro.runtime.cluster.build_replica`, exactly
the replica the simulator tier would build for the same
``ScenarioSpec`` and seed — same protocol class, same
:class:`~repro.protocols.base.ReplicaConfig`, same deterministic
:class:`~repro.crypto.registry.KeyRegistry` — but binds it to
:class:`~repro.rt_net.transport.TcpTransport` and
:class:`~repro.rt_net.transport.WallClock` instead of the simulator
adapters.  The protocol code cannot tell the difference; that is the
point of the Transport/Clock seam.

The host wires the replica to its
:class:`~repro.runtime.client.Mempool` through the simulator tier's
:func:`~repro.runtime.client.attach`:

* client transactions (``ClientRequestMsg`` frames from the client
  fleet) go into the mempool.  Clients broadcast every request to all
  ``n`` replicas, so every leader holds every pending transaction;
* a block extending ``parent_id`` proposes each of them once, skipping
  what the chain from ``parent_id`` down to the last commit carries
  (:func:`~repro.runtime.client.chain_walk`); a transaction on an
  abandoned fork is on no such path and is proposed again;
* with nothing uncarried, a block is proposed only if the chain needs
  it to commit a transaction (:meth:`ReplicaHost._payload_source`).
  Otherwise a DiemBFT-family leader defers its round; the next client
  request wakes it on the following loop turn, and a 50 ms heartbeat
  forces a synthetic batch, so an idle cluster (and idle
  strengthening) advances one round per beat instead of free-running;
* as each block commits, its transactions leave the mempool and each
  routed transaction's client gets a ``ClientReplyMsg`` at once
  (clients ack at f+1 matching replies), before checkpoint truncation
  can prune the block.  A snapshot install fires no commit listener:
  the replicas that committed the skipped range ack its clients, and
  its transactions still pending here are proposed again;
* on SIGTERM (the manager's stop signal) the host writes the committed
  chain, metrics and ``txs_carried`` (transactions in committed blocks)
  / ``txs_distinct`` (those still pending when their block committed;
  the difference is re-proposed duplicates) to a result JSON and exits.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from pathlib import Path

from repro.crypto.registry import KeyRegistry
from repro.experiments.spec import spec_from_mapping
from repro.runtime.client import Mempool, attach, chain_walk
from repro.runtime.cluster import build_replica
from repro.rt_net.transport import TcpTransport, WallClock
from repro.types.messages import ClientReplyMsg, ClientRequestMsg

#: Heartbeat of a leader deferring an idle round (wall seconds).
_HEARTBEAT_INTERVAL = 0.05
#: Self-destruct margin past the configured duration, in case the
#: manager dies without sending SIGTERM.
_ORPHAN_GRACE = 60.0


class ReplicaHost:
    """One replica plus its mempool/reply plumbing inside one process."""

    def __init__(self, config: dict, replica_id: int) -> None:
        self.replica_id = replica_id
        self.spec = spec_from_mapping(config["spec"])
        self.seed = int(config.get("seed", self.spec.seeds[0]))
        self.epoch = float(config["epoch"])
        self.host = config.get("host", "127.0.0.1")
        self.ports = {int(k): int(v) for k, v in config["ports"].items()}
        self.result_path = Path(config["result_path"])
        self.duration = float(config.get("duration", self.spec.duration))

        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.clock = WallClock(self.loop, epoch=self.epoch)
        peers = {rid: (self.host, port) for rid, port in self.ports.items()}
        self.transport = TcpTransport(
            replica_id,
            peers,
            on_message=self._on_peer_message,
            on_client_message=self._on_client_message,
            loop=self.loop,
        )
        self.replica = build_replica(
            self.spec, replica_id, self.transport, self.clock,
            KeyRegistry(self.spec.n),
        )

        #: The replica's built-in synthetic-batch source, kept as the
        #: fallback so an idle mempool proposes exactly the payloads the
        #: simulator tier proposes (same digest fields) — that is what
        #: makes the sim-vs-TCP differential compare literal block ids.
        self._default_payload = self.replica.payload_source
        self.mempool = Mempool.for_replica(self.replica.config)
        #: txid -> client id, for routing commit acknowledgements.
        self._routes: dict = {}
        self.committed: list = []
        self.replies_sent = 0
        self.txs_carried = 0
        self.txs_distinct = 0
        self._wake_pending = False
        self._stopping = False
        attach(self.replica, self.mempool, self._on_commit, self._payload_source)

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------

    def _on_peer_message(self, src: int, message) -> None:
        self.replica.deliver(src, message)

    def _on_client_message(self, client_id: int, message) -> None:
        if not isinstance(message, ClientRequestMsg):
            return
        txid = self.mempool.submit(message.transaction)
        self._routes[txid] = client_id
        if self.replica.deferred_round is not None and not self._wake_pending:
            # Next loop turn, so the rest of this read batch lands first
            # and rides in the same block.
            self._wake_pending = True
            self.loop.call_soon(self._wake)

    def _wake(self) -> None:
        self._wake_pending = False
        self.replica.propose_deferred()

    def _payload_source(self, now: float, parent_id):
        """Uncarried transactions; else the synthetic batch if the chain
        still needs this block to commit one; else ``None`` (defer)."""
        carried, needed = chain_walk(self.replica, parent_id)
        payload = self.mempool.make_payload(now, carried)
        if payload.transactions:
            return payload
        return self._default_payload(now, parent_id) if needed else None

    # ------------------------------------------------------------------
    # commit stream
    # ------------------------------------------------------------------

    def _on_commit(self, block, now: float, removed: int) -> None:
        """Commit sink: record ``block`` and answer each routed client
        straight away."""
        block_id = block.id()
        self.committed.append((block.height, block.round, block_id.hex()))
        transactions = block.payload.transactions
        self.txs_carried += len(transactions)
        self.txs_distinct += removed
        for transaction in transactions:
            txid = transaction.txid()
            client_id = self._routes.pop(txid, None)
            if client_id is None:
                continue
            self.transport.send_to_client(
                client_id,
                ClientReplyMsg(
                    sender=self.replica_id,
                    txid=txid,
                    block_id=block_id,
                    height=block.height,
                    round=block.round,
                ),
            )
            self.replies_sent += 1

    def _heartbeat(self) -> None:
        """Force a deferred idle round, then re-arm."""
        if self._stopping:
            return
        self.replica.propose_deferred(force=True)
        self.loop.call_later(_HEARTBEAT_INTERVAL, self._heartbeat)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def _wait_for_peers(self, timeout: float = 15.0) -> None:
        """Block until every peer's server accepts connections.

        Starting consensus only once the full cluster listens keeps the
        wall-clock tier from burning its first round on a timeout the
        simulator tier never sees (outbound queues would deliver the
        proposal late, but the pacemaker timer would already be ticking).
        """
        deadline = self.loop.time() + timeout
        for rid, port in self.ports.items():
            if rid == self.replica_id:
                continue
            while True:
                try:
                    _, writer = await asyncio.open_connection(self.host, port)
                    writer.close()
                    break
                except (ConnectionError, OSError):
                    if self.loop.time() > deadline:
                        raise TimeoutError(
                            f"replica {rid} not listening on port {port}"
                        )
                    await asyncio.sleep(0.05)

    def _write_result(self) -> None:
        result = {
            "replica_id": self.replica_id,
            "protocol": self.spec.protocol,
            "seed": self.seed,
            "committed": self.committed,
            "commits": len(self.committed),
            "now": self.clock.now,
            "frames_sent": self.transport.frames_sent,
            "frames_received": self.transport.frames_received,
            "send_errors": self.transport.send_errors,
            "mempool_submitted": self.mempool.submitted,
            "mempool_pending": self.mempool.pending_count(),
            "replies_sent": self.replies_sent,
            "txs_carried": self.txs_carried,
            "txs_distinct": self.txs_distinct,
            "metrics": self.replica.metrics.snapshot(),
        }
        tmp = self.result_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(result, indent=2, sort_keys=True))
        tmp.replace(self.result_path)

    def _shutdown(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        try:
            self._write_result()
        finally:
            self.loop.stop()

    async def _main(self) -> None:
        await self.transport.start()
        print(
            f"[replica {self.replica_id}] listening on "
            f"{self.host}:{self.ports[self.replica_id]}",
            flush=True,
        )
        await self._wait_for_peers()
        print(f"[replica {self.replica_id}] cluster up, starting", flush=True)
        self.replica.start()
        self.loop.call_later(_HEARTBEAT_INTERVAL, self._heartbeat)
        # Orphan backstop: if the manager never signals us, stop anyway.
        self.loop.call_later(self.duration + _ORPHAN_GRACE, self._shutdown)

    def run(self) -> None:
        self.loop.add_signal_handler(signal.SIGTERM, self._shutdown)
        self.loop.add_signal_handler(signal.SIGINT, self._shutdown)
        self.loop.create_task(self._main())
        try:
            self.loop.run_forever()
        finally:
            self.loop.close()
        print(
            f"[replica {self.replica_id}] stopped with "
            f"{len(self.committed)} commits",
            flush=True,
        )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(
            "usage: python -m repro.rt_net.replica_proc <config.json> "
            "<replica_id>",
            file=sys.stderr,
        )
        return 2
    config = json.loads(Path(argv[0]).read_text())
    host = ReplicaHost(config, int(argv[1]))
    host.run()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
