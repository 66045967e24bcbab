"""Client transactions and block payloads.

Two payload styles are supported:

* :class:`Transaction` — a real, individually tracked client request.
  Used by examples and small runs where end-to-end transaction latency
  matters.
* :class:`TxBatch` — a compact descriptor ("1000 transactions totalling
  450 KB") standing in for the paper's saturated-load blocks.  Large
  simulations (n = 100, hundreds of rounds) use batches so block
  payloads stay O(1) in memory while throughput accounting stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.hashing import HashDigest, hash_fields


@dataclass(frozen=True, slots=True)
class Transaction:
    """A single externally-submitted client transaction."""

    client_id: int
    sequence: int
    payload: bytes = b""
    submitted_at: float = 0.0
    _txid: HashDigest | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def txid(self) -> HashDigest:
        """Collision-resistant transaction identifier (computed once,
        then cached — mempools, block ids and reply routing all key on it)."""
        cached = self._txid
        if cached is None:
            cached = hash_fields(
                "txn", self.client_id, self.sequence, self.payload
            )
            object.__setattr__(self, "_txid", cached)
        return cached

    def size_bytes(self) -> int:
        """Approximate wire size of this transaction."""
        return 16 + len(self.payload)


@dataclass(frozen=True, slots=True)
class TxBatch:
    """A synthetic batch of transactions with exact aggregate accounting.

    ``count`` transactions totalling ``size_bytes`` were nominally
    created at ``created_at``; the batch hashes like an opaque blob so
    blocks containing different batches have different digests.
    """

    count: int
    size_bytes: int
    created_at: float = 0.0
    tag: int = 0

    def digest(self) -> HashDigest:
        return hash_fields("batch", self.count, self.size_bytes, self.tag)


@dataclass(slots=True)
class Payload:
    """Block payload: real transactions and/or a synthetic batch."""

    transactions: tuple = field(default_factory=tuple)
    batch: TxBatch | None = None

    def tx_count(self) -> int:
        """Number of client transactions this payload commits."""
        count = len(self.transactions)
        if self.batch is not None:
            count += self.batch.count
        return count

    def size_bytes(self) -> int:
        """Approximate serialized size of the payload."""
        size = sum(txn.size_bytes() for txn in self.transactions)
        if self.batch is not None:
            size += self.batch.size_bytes
        return size

    def digest_fields(self) -> tuple:
        """Fields contributing to the enclosing block's hash."""
        tx_ids = tuple(txn.txid().value for txn in self.transactions)
        batch_digest = self.batch.digest().value if self.batch else b""
        return (tx_ids, batch_digest)


EMPTY_PAYLOAD = Payload()
