"""Length-prefixed JSON wire codec for the signed message types.

Every message type in :mod:`repro.types.messages` — and every value
type reachable from one (blocks, QCs, votes, transactions, digests,
signatures) — encodes to a JSON document and decodes back to an equal
object.  Equality is structural: the dataclasses compare on their
semantic fields (the ``_cached_*`` memo fields are ``compare=False``
and recompute lazily), so signing payloads and therefore HMAC
signatures are byte-for-byte stable across the round trip.

Encoding rules:

* ``None`` / ``bool`` / ``int`` / ``float`` / ``str`` pass through as
  JSON scalars;
* ``bytes`` become ``{"!b": "<hex>"}``;
* tuples and lists become JSON arrays and decode as tuples (every
  sequence field in the wire types is a tuple);
* frozensets become ``{"!fs": [...]}`` with sorted elements;
* registered dataclasses become ``{"!t": "<TypeName>", "f": {...}}``
  over their ``init=True`` fields.

Framing is a 4-byte big-endian length prefix followed by the UTF-8
JSON body; :class:`FrameDecoder` reassembles frames from an arbitrary
byte stream (TCP gives no message boundaries).
"""

from __future__ import annotations

import json
import struct
from dataclasses import fields as dataclass_fields

from repro.crypto.hashing import HashDigest
from repro.crypto.signatures import Signature
from repro.types.block import Block
from repro.types.messages import (
    CheckpointMsg,
    ClientReplyMsg,
    ClientRequestMsg,
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
from repro.types.quorum_cert import QuorumCertificate, TimeoutCertificate
from repro.types.transaction import Payload, Transaction, TxBatch
from repro.types.vote import StrongVote, Vote

#: Every type that may appear on the wire, by name.  Hellos and control
#: frames are plain dicts and bypass this registry.
WIRE_TYPES = (
    ProposalMsg,
    VoteMsg,
    TimeoutMsg,
    QCMsg,
    ExtraVotesMsg,
    EchoMsg,
    ClientRequestMsg,
    ClientReplyMsg,
    SyncRequestMsg,
    SyncResponseMsg,
    CheckpointMsg,
    SnapshotRequestMsg,
    SnapshotResponseMsg,
    Block,
    QuorumCertificate,
    TimeoutCertificate,
    Vote,
    StrongVote,
    Transaction,
    TxBatch,
    Payload,
    HashDigest,
    Signature,
)

_BY_NAME = {cls.__name__: cls for cls in WIRE_TYPES}
_INIT_FIELDS = {
    cls: tuple(
        f.name for f in dataclass_fields(cls) if f.init
    )
    for cls in WIRE_TYPES
}
#: Fields that must decode as frozensets rather than tuples.
_FROZENSET_FIELDS = {(TimeoutCertificate, "timeout_voters")}

_LEN = struct.Struct(">I")

#: Upper bound on one frame; a peer announcing more is cut off before
#: it can balloon memory (64 MiB clears any realistic snapshot).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class CodecError(ValueError):
    """Raised on malformed frames or unknown wire types."""


def _encode_value(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"!b": value.hex()}
    if isinstance(value, (tuple, list)):
        return [_encode_value(item) for item in value]
    if isinstance(value, frozenset):
        return {"!fs": sorted(_encode_value(item) for item in value)}
    if isinstance(value, dict):
        # Plain mapping: hello and control frames.
        return {key: _encode_value(item) for key, item in value.items()}
    cls = type(value)
    names = _INIT_FIELDS.get(cls)
    if names is None:
        raise CodecError(f"cannot encode {cls.__name__} for the wire")
    return {
        "!t": cls.__name__,
        "f": {name: _encode_value(getattr(value, name)) for name in names},
    }


def _decode_value(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return tuple(_decode_value(item) for item in value)
    if isinstance(value, dict):
        if "!b" in value:
            return bytes.fromhex(value["!b"])
        if "!fs" in value:
            return frozenset(_decode_value(item) for item in value["!fs"])
        type_name = value.get("!t")
        if type_name is None:
            # Plain mapping: hello and control frames stay dicts.
            return {key: _decode_value(item) for key, item in value.items()}
        cls = _BY_NAME.get(type_name)
        if cls is None:
            raise CodecError(f"unknown wire type {type_name!r}")
        raw = value.get("f")
        if not isinstance(raw, dict):
            raise CodecError(f"malformed {type_name} frame: missing fields")
        names = _INIT_FIELDS[cls]
        kwargs = {}
        for name in names:
            if name not in raw:
                continue  # dataclass default fills the gap
            decoded = _decode_value(raw[name])
            if (cls, name) in _FROZENSET_FIELDS and isinstance(decoded, tuple):
                decoded = frozenset(decoded)
            kwargs[name] = decoded
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise CodecError(f"cannot rebuild {type_name}: {exc}") from exc
    raise CodecError(f"cannot decode wire value {value!r}")


def encode_message(message) -> bytes:
    """Serialize one wire object to canonical JSON bytes (no frame)."""
    return json.dumps(
        _encode_value(message), separators=(",", ":"), sort_keys=True
    ).encode("utf-8")


def decode_message(data: bytes):
    """Inverse of :func:`encode_message`."""
    try:
        document = json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"malformed frame body: {exc}") from exc
    return _decode_value(document)


def frame(body: bytes) -> bytes:
    """Prefix ``body`` with its 4-byte big-endian length."""
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(body)} bytes exceeds the cap")
    return _LEN.pack(len(body)) + body


def encode_frame(message) -> bytes:
    """One wire object as a complete length-prefixed frame."""
    return frame(encode_message(message))


class FrameDecoder:
    """Incremental frame reassembly over an arbitrary byte stream."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list:
        """Absorb ``data``; return every message completed by it."""
        self._buffer.extend(data)
        messages = []
        while True:
            if len(self._buffer) < _LEN.size:
                return messages
            (length,) = _LEN.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                raise CodecError(f"announced frame of {length} bytes")
            end = _LEN.size + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[_LEN.size:end])
            del self._buffer[:end]
            messages.append(decode_message(body))
