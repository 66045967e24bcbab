"""Message passing over the simulated network.

Semantics implemented here (Section 2 of the paper):

* all-to-all reliable authenticated channels;
* partial synchrony: an unknown Global Stabilization Time (GST) before
  which delivery may be arbitrarily delayed; after GST every message
  arrives within the topology delay (+ jitter);
* optional bandwidth modelling: a multicast of a large block from one
  sender serializes onto its uplink, so receivers see staggered
  arrival times — this is what makes strong-QC membership a race and
  drives endorsement diversity (Section 4.1);
* temporary partitions for fault-injection tests (messages crossing a
  partition are held and delivered at heal time — channels stay
  reliable).

Message sizes are estimated from payloads so that bandwidth effects
scale with the paper's ~450 KB blocks.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field

from repro.net.simulator import Simulator
from repro.net.topology import Topology
from repro.types.messages import (
    CheckpointMsg,
    EchoMsg,
    ExtraVotesMsg,
    ProposalMsg,
    QCMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
    SyncRequestMsg,
    SyncResponseMsg,
    TimeoutMsg,
    VoteMsg,
)

_VOTE_SIZE = 200
_TIMEOUT_SIZE = 300
_HEADER_SIZE = 64
_QC_SIZE = 2_000
_HASH_SIZE = 32


def _vote_wire_size(vote) -> int:
    """Plain vote size plus the strong-vote extras (marker/intervals)."""
    size = _VOTE_SIZE
    intervals = vote.intervals  # () on plain votes (class attribute)
    if intervals:
        size += 16 * len(intervals)
    elif hasattr(vote, "marker"):
        size += 8  # the single marker integer (Figure 4)
    return size


def _proposal_size(message) -> int:
    return _HEADER_SIZE + message.block.payload.size_bytes() + 2_000


def _vote_msg_size(message) -> int:
    return _vote_wire_size(message.vote)


def _timeout_size(message) -> int:
    size = _TIMEOUT_SIZE
    if message.vote is not None:  # sync-enabled vote recovery piggyback
        size += _vote_wire_size(message.vote)
    return size


def _sync_request_size(message) -> int:
    del message
    return _HEADER_SIZE + _HASH_SIZE + 16  # target hash + max/nonce ints


def _sync_response_size(message) -> int:
    # Each entry ships a full block (payload + header) plus its embedded
    # parent QC; the optional tip QC rides on top.
    size = _HEADER_SIZE
    for block in message.blocks:
        size += block.payload.size_bytes() + _QC_SIZE + _HEADER_SIZE
    if message.tip_qc is not None:
        size += _QC_SIZE
    return size


def _checkpoint_size(message) -> int:
    del message
    # height int + checkpoint block hash + state digest + signature.
    return _HEADER_SIZE + 8 + 2 * _HASH_SIZE


def _snapshot_request_size(message) -> int:
    del message
    return _HEADER_SIZE + 16  # min-height + nonce ints


def _snapshot_response_size(message) -> int:
    # The dominant cost is the full kvstore image; each entry ships its
    # key/value strings, each applied txid a hash, each certificate
    # signer a (id, signature) pair, plus the checkpoint block itself.
    size = _HEADER_SIZE + 8 + 2 * _HASH_SIZE
    size += sum(len(key) + len(value) + 8 for key, value in message.state)
    size += _HASH_SIZE * len(message.applied_txids)
    size += (_HASH_SIZE + 8) * len(message.cert_signers)
    if message.block is not None:
        size += message.block.payload.size_bytes() + _QC_SIZE + _HEADER_SIZE
    return size


def _extra_votes_size(message) -> int:
    if message.votes:
        return _HEADER_SIZE + sum(
            _vote_wire_size(vote) for vote in message.votes
        )
    return _HEADER_SIZE + _VOTE_SIZE


def _qc_msg_size(message) -> int:
    # The aggregated certificate ships every embedded signed vote, so
    # linear mode trades O(n²) vote messages for one O(n·vote) payload.
    return _HEADER_SIZE + sum(
        _vote_wire_size(vote) for vote in message.qc.votes
    )


def _echo_size(message) -> int:
    return _HEADER_SIZE + wire_size_bytes(message.inner)


def _default_size(message) -> int:
    del message
    return _HEADER_SIZE


#: Concrete type → size estimator.  Unknown types (message subclasses,
#: test stubs) resolve through :func:`_resolve_sizer` exactly once.
_WIRE_SIZERS: dict = {
    ProposalMsg: _proposal_size,
    VoteMsg: _vote_msg_size,
    QCMsg: _qc_msg_size,
    TimeoutMsg: _timeout_size,
    ExtraVotesMsg: _extra_votes_size,
    EchoMsg: _echo_size,
    SyncRequestMsg: _sync_request_size,
    SyncResponseMsg: _sync_response_size,
    CheckpointMsg: _checkpoint_size,
    SnapshotRequestMsg: _snapshot_request_size,
    SnapshotResponseMsg: _snapshot_response_size,
}

#: Resolution order for subclasses — mirrors the old isinstance chain.
_MESSAGE_BASES = (
    ProposalMsg,
    VoteMsg,
    QCMsg,
    TimeoutMsg,
    ExtraVotesMsg,
    EchoMsg,
    SyncRequestMsg,
    SyncResponseMsg,
    CheckpointMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
)


def _resolve_sizer(message_type):
    """Find (and memoize) the sizer for a not-yet-seen message type."""
    sizer = _default_size
    for base in _MESSAGE_BASES:
        if issubclass(message_type, base):
            sizer = _WIRE_SIZERS[base]
            break
    _WIRE_SIZERS[message_type] = sizer
    return sizer


def wire_size_bytes(message) -> int:
    """Estimate the serialized size of a protocol message.

    Dispatch is a single dict lookup on the concrete type instead of
    an isinstance chain — ``Network.send`` calls this once per message,
    ``Network.multicast`` once for all its copies.
    """
    message_type = type(message)
    sizer = _WIRE_SIZERS.get(message_type)
    if sizer is None:
        sizer = _resolve_sizer(message_type)
    return sizer(message)


@dataclass(slots=True)
class NetworkConfig:
    """Tunable delivery behaviour.

    ``jitter`` adds ``U[0, jitter)`` seconds per message.  ``gst``
    activates partial synchrony: messages sent before GST incur
    ``pre_gst_delay`` extra (delivered no earlier than GST).
    ``bandwidth_bytes_per_sec`` serializes each sender's outgoing
    traffic; 0 disables bandwidth modelling.

    At-least-once delivery faults (both default off, preserving
    byte-identical replay): ``duplicate_rate`` redelivers each unicast
    a second time with that probability, and ``reorder_window`` adds
    ``U[0, reorder_window)`` extra seconds per message so later sends
    can overtake earlier ones.  Channels stay reliable — the original
    copy always arrives — but exactly-once is gone, which is the regime
    where recovery/redelivery idempotency bugs hide.
    """

    jitter: float = 0.0
    seed: int = 0
    gst: float = 0.0
    pre_gst_delay: float = 0.0
    bandwidth_bytes_per_sec: float = 0.0
    processing_delay: float = 0.0
    duplicate_rate: float = 0.0
    reorder_window: float = 0.0


@dataclass(slots=True)
class _Partition:
    groups: tuple
    start: float
    end: float
    group_of: dict = field(default_factory=dict)

    def __post_init__(self):
        for index, group in enumerate(self.groups):
            for replica in group:
                self.group_of[replica] = index

    def separates(self, src: int, dst: int) -> bool:
        src_group = self.group_of.get(src)
        dst_group = self.group_of.get(dst)
        if src_group is None or dst_group is None:
            return False
        return src_group != dst_group


class Network:
    """Delivers messages between registered handlers with simulated delays."""

    def __init__(
        self,
        simulator: Simulator,
        topology: Topology,
        config: NetworkConfig | None = None,
    ) -> None:
        self.simulator = simulator
        self.topology = topology
        self.config = config or NetworkConfig()
        self._rng = random.Random(self.config.seed)
        # At-least-once faults draw from their own stream so turning
        # them on never perturbs the jitter / multicast-shuffle
        # sequence above (byte-identical default-off replay).
        self._delivery_rng = (
            random.Random(f"at-least-once:{self.config.seed}")
            if self.config.duplicate_rate > 0 or self.config.reorder_window > 0
            else None
        )
        self._handlers: dict[int, object] = {}
        self._uplink_busy_until: dict[int, float] = {}
        self._partitions: list[_Partition] = []
        self._partitions_min_end = math.inf
        self.messages_sent = 0
        self.messages_delivered = 0
        self.bytes_sent = 0
        self.sent_by_type: Counter = Counter()
        self.dropped_to_unregistered = 0
        self.messages_duplicated = 0

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def register(self, replica_id: int, handler) -> None:
        """Attach ``handler.deliver(src, message)`` as the endpoint."""
        self._handlers[replica_id] = handler

    def unregister(self, replica_id: int) -> None:
        """Remove an endpoint (a crashed replica receives nothing)."""
        self._handlers.pop(replica_id, None)

    def add_partition(self, groups, start: float, end: float) -> None:
        """Partition replicas into ``groups`` during ``[start, end)``.

        Cross-group messages sent in the window are held and delivered
        after ``end`` (+ the normal delay) — reliable channels, late
        delivery, which is exactly pre-GST partial synchrony.
        """
        self._partitions.append(
            _Partition(tuple(tuple(group) for group in groups), start, end)
        )
        self._partitions_min_end = min(self._partitions_min_end, end)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, message) -> None:
        """Send one message; delivery is scheduled on the simulator."""
        size = wire_size_bytes(message)
        self.messages_sent += 1
        self.bytes_sent += size
        self.sent_by_type[type(message).__name__] += 1
        self._schedule_copy(src, dst, message, size)

    def multicast(self, src: int, message, include_self: bool = False) -> None:
        """Send ``message`` to every replica (optionally including ``src``).

        The message is sized and counted once for all its copies.  With
        bandwidth modelling on, per-destination copies serialize one
        after another in a random order — receivers of a 450 KB
        proposal see measurably staggered arrivals.
        """
        destinations = [
            replica for replica in range(self.topology.n)
            if include_self or replica != src
        ]
        if not destinations:
            return
        if self.config.bandwidth_bytes_per_sec > 0:
            self._rng.shuffle(destinations)
        size = wire_size_bytes(message)
        copies = len(destinations)
        self.messages_sent += copies
        self.bytes_sent += size * copies
        self.sent_by_type[type(message).__name__] += copies
        for dst in destinations:
            self._schedule_copy(src, dst, message, size)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _schedule_copy(self, src: int, dst: int, message, size: int) -> None:
        """Schedule the delivery of one already-counted copy."""
        depart = self.simulator.now
        if self.config.bandwidth_bytes_per_sec > 0:
            depart += self._serialization_delay(src, size)
        arrival = depart + self._link_delay(src, dst, depart)
        if self._delivery_rng is not None:
            arrival = self._at_least_once(src, dst, message, arrival)
        # Deliveries are never cancelled: the fire-and-forget fast path
        # skips allocating a TimerHandle per message.
        self.simulator.schedule_fire(arrival, self._deliver, src, dst, message)

    def _at_least_once(self, src: int, dst: int, message, arrival: float) -> float:
        """Apply the at-least-once delivery faults to one unicast.

        Reordering perturbs this copy's arrival by ``U[0, window)``
        extra seconds; duplication schedules an independent second
        delivery inside the same window (or one topology delay when no
        window is configured, so duplicates never arrive in lock-step
        with the original).
        """
        rng = self._delivery_rng
        window = self.config.reorder_window
        if window > 0:
            arrival += rng.uniform(0.0, window)
        if self.config.duplicate_rate > 0 and (
            rng.random() < self.config.duplicate_rate
        ):
            spread = window if window > 0 else self.topology.delay(src, dst)
            extra = rng.uniform(0.0, spread) if spread > 0 else 0.0
            self.messages_duplicated += 1
            self.simulator.schedule_fire(
                arrival + extra, self._deliver, src, dst, message
            )
        return arrival

    def _serialization_delay(self, src: int, size: int) -> float:
        """Model the sender's uplink as a FIFO pipe (bandwidth on only)."""
        now = self.simulator.now
        busy_until = max(self._uplink_busy_until.get(src, now), now)
        transmit = size / self.config.bandwidth_bytes_per_sec
        self._uplink_busy_until[src] = busy_until + transmit
        return (busy_until + transmit) - now

    def _link_delay(self, src: int, dst: int, depart: float) -> float:
        config = self.config
        base = self.topology.delay(src, dst)
        if config.jitter > 0 and src != dst:
            # Bit-identical to ``uniform(0.0, jitter)``, one call cheaper.
            base += config.jitter * self._rng.random()
        arrival = depart + base
        # Partitions: hold cross-group traffic until the heal time.
        # Healed partitions (end <= now <= every future depart) can
        # never separate another message — prune them so partition-heavy
        # runs stop paying an O(partitions) scan per message.
        if self._partitions:
            now = self.simulator.now
            if now >= self._partitions_min_end:
                self._prune_partitions(now)
            for partition in self._partitions:
                if partition.start <= depart < partition.end and partition.separates(
                    src, dst
                ):
                    arrival = max(arrival, partition.end + base)
        # Partial synchrony: before GST, delivery may lag arbitrarily;
        # we model it as pre_gst_delay extra, never before GST itself.
        if depart < config.gst:
            arrival = max(arrival + config.pre_gst_delay, config.gst)
        return arrival - depart

    def _prune_partitions(self, now: float) -> None:
        """Drop healed partitions; every future depart is >= ``now``."""
        self._partitions = [
            partition for partition in self._partitions if partition.end > now
        ]
        self._partitions_min_end = min(
            (partition.end for partition in self._partitions), default=math.inf
        )

    def _deliver(self, src: int, dst: int, message) -> None:
        handler = self._handlers.get(dst)
        if handler is None:
            self.dropped_to_unregistered += 1
            return
        self.messages_delivered += 1
        if self.config.processing_delay > 0:
            self.simulator.schedule_fire(
                self.simulator.now + self.config.processing_delay,
                handler.deliver, src, message,
            )
        else:
            handler.deliver(src, message)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        data = {
            "sent": self.messages_sent,
            "delivered": self.messages_delivered,
            "bytes": self.bytes_sent,
            "by_type": dict(self.sent_by_type),
        }
        if self._delivery_rng is not None:
            # Only surfaced when the fault is on, so default-off runs
            # keep the committed metrics schema byte-for-byte.
            data["duplicated"] = self.messages_duplicated
        return data
