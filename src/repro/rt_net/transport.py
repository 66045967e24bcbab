"""Asyncio TCP bindings of the replica-facing Transport/Clock seam.

:class:`TcpTransport` gives one replica process a server socket for
inbound frames and a retry-connecting sender task per peer for
outbound ones.  ``send``/``multicast`` are synchronous and non-blocking
— they enqueue frames onto per-destination queues, so protocol code
stays the same single-threaded event-driven state machine it is under
the simulator; all socket work happens on the asyncio loop.

Outbound queues buffer until the peer's server is reachable (with
capped-backoff reconnects), which makes cluster startup order
irrelevant: a leader's round-1 proposal waits in the queue until every
peer listens.  Delivery is at-least-once — a frame in flight during a
connection failure is resent on the next connection — which the
protocols already tolerate (the PR-9 duplicate-delivery fault model is
exactly this regime).

Inbound connections introduce themselves with a hello frame
``{"kind": "peer"|"client", "id": <int>}``; peer traffic dispatches to
the replica's ``deliver`` path, client traffic to the process host's
client handler, which can reply down the same connection.

:class:`WallClock` implements the Clock interface over ``loop.time()``
with timers via ``loop.call_later``.  A shared ``epoch`` (one wall
timestamp distributed by the manager) aligns ``now`` across processes,
which time-driven protocols (Streamlet's round clock) need.
"""

from __future__ import annotations

import asyncio
import time

from repro.rt_net.codec import CodecError, FrameDecoder, encode_frame, frame

#: Reconnect backoff for the per-peer sender tasks.
_RECONNECT_INITIAL = 0.05
_RECONNECT_MAX = 1.0


class WallClock:
    """Clock over the asyncio loop's monotonic time.

    ``now`` is seconds since ``epoch`` (a ``time.time()`` timestamp all
    cluster processes share); with ``epoch=None`` it is seconds since
    clock construction.
    """

    def __init__(self, loop=None, epoch: float | None = None) -> None:
        self.loop = loop if loop is not None else asyncio.get_event_loop()
        if epoch is None:
            self._offset = self.loop.time()
        else:
            # loop.time() is monotonic with an arbitrary origin; anchor
            # it to the wall clock once so `now` is epoch-relative.
            self._offset = self.loop.time() - (time.time() - epoch)

    @property
    def now(self) -> float:
        return self.loop.time() - self._offset

    def set_timer(self, delay: float, callback, *args):
        return self.loop.call_later(delay, callback, *args)

    def cancel_timer(self, handle) -> None:
        handle.cancel()


class TcpTransport:
    """The Transport interface over asyncio TCP for one replica process.

    ``peers`` maps every replica id (including our own) to its
    ``(host, port)`` endpoint.  Messages to self skip the network and
    dispatch via ``loop.call_soon`` — same-iteration re-entrancy is
    impossible either way, so protocol code sees one uniform
    "delivered later" semantics.
    """

    def __init__(
        self,
        replica_id: int,
        peers: dict[int, tuple[str, int]],
        on_message,
        on_client_message=None,
        loop=None,
    ) -> None:
        self.replica_id = replica_id
        self.peers = dict(peers)
        self.on_message = on_message
        self.on_client_message = on_client_message
        self.loop = loop if loop is not None else asyncio.get_event_loop()
        self._queues: dict[int, asyncio.Queue] = {}
        self._sender_tasks: dict[int, asyncio.Task] = {}
        self._server: asyncio.AbstractServer | None = None
        self._client_writers: dict[int, asyncio.StreamWriter] = {}
        self._detached = False
        self.frames_sent = 0
        self.frames_received = 0
        self.send_errors = 0

    # ------------------------------------------------------------------
    # Transport interface (synchronous, called from protocol code)
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, message) -> None:
        if self._detached:
            return
        if dst == self.replica_id:
            self.loop.call_soon(self._dispatch_peer, src, message)
        elif dst in self.peers:  # else drop, like the simulator
            self._enqueue(dst, encode_frame(message))

    def multicast(self, src: int, message, include_self: bool = False) -> None:
        if self._detached:
            return
        body = None
        for dst in self.peers:
            if dst == self.replica_id:
                if include_self:
                    self.loop.call_soon(self._dispatch_peer, src, message)
                continue
            if body is None:
                body = encode_frame(message)
            self._enqueue(dst, body)

    def _enqueue(self, dst: int, body: bytes) -> None:
        """Queue one frame for ``dst``'s sender task (started on first use)."""
        queue = self._queues.get(dst)
        if queue is None:
            queue = asyncio.Queue()
            self._queues[dst] = queue
            self._sender_tasks[dst] = self.loop.create_task(
                self._sender(dst, queue)
            )
        queue.put_nowait(body)

    def unregister(self, replica_id: int) -> None:
        """Crash fault: stop receiving (senders drain and die with us)."""
        if replica_id == self.replica_id:
            self._detached = True
            if self._server is not None:
                self._server.close()

    # ------------------------------------------------------------------
    # server side
    # ------------------------------------------------------------------

    async def start(self) -> None:
        host, port = self.peers[self.replica_id]
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )

    async def stop(self) -> None:
        for task in self._sender_tasks.values():
            task.cancel()
        for task in self._sender_tasks.values():
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._sender_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _dispatch_peer(self, src: int, message) -> None:
        if not self._detached:
            self.on_message(src, message)

    async def _handle_connection(self, reader, writer) -> None:
        decoder = FrameDecoder()
        kind = None
        sender_id = None
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                try:
                    messages = decoder.feed(data)
                except CodecError:
                    break  # malformed peer: cut the connection
                for message in messages:
                    if kind is None:
                        # First frame must be the hello.
                        if not isinstance(message, dict):
                            return
                        kind = message.get("kind")
                        sender_id = message.get("id")
                        if kind not in ("peer", "client") or not isinstance(
                            sender_id, int
                        ):
                            return
                        if kind == "client":
                            self._client_writers[sender_id] = writer
                        continue
                    self.frames_received += 1
                    if self._detached:
                        continue
                    if kind == "peer":
                        self.on_message(sender_id, message)
                    elif self.on_client_message is not None:
                        self.on_client_message(sender_id, message)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if kind == "client" and self._client_writers.get(sender_id) is writer:
                del self._client_writers[sender_id]
            writer.close()

    def send_to_client(self, client_id: int, message) -> None:
        """Reply down a connected client's stream (drop if it left)."""
        writer = self._client_writers.get(client_id)
        if writer is None or writer.is_closing():
            return
        writer.write(encode_frame(message))

    # ------------------------------------------------------------------
    # sender tasks
    # ------------------------------------------------------------------

    async def _sender(self, dst: int, queue: asyncio.Queue) -> None:
        host, port = self.peers[dst]
        hello = frame(
            b'{"kind":"peer","id":%d}' % self.replica_id
        )
        backoff = _RECONNECT_INITIAL
        pending: bytes | None = None
        writer = None
        while True:
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(hello)
                backoff = _RECONNECT_INITIAL
                while True:
                    if pending is None:
                        pending = await queue.get()
                    writer.write(pending)
                    await writer.drain()
                    self.frames_sent += 1
                    pending = None
            except asyncio.CancelledError:
                if writer is not None:
                    writer.close()
                raise
            except (ConnectionError, OSError):
                # Peer unreachable (not yet listening, crashed, or
                # mid-restart): keep the in-flight frame and retry —
                # at-least-once delivery.
                self.send_errors += 1
                if writer is not None:
                    writer.close()
                    writer = None
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, _RECONNECT_MAX)
