"""Conflicting-transaction deferral (Section 5).

With strong commits, a later low-assurance transaction can commit
before an earlier high-assurance one ("txn2 is f-strong committed
before txn1 is 2f-strong committed"), which is dangerous when the two
conflict (same account, say).  The paper's remedy: "the protocol can
ask the leader to propose conflicting transactions only after the
block containing the earlier transaction is already strong committed".

:class:`ConflictAwareMempool` implements that leader-side policy as a
:class:`~repro.runtime.client.Mempool` with its own payload selection.
Transactions are submitted with an optional ``conflict_key`` (e.g. the
sender account) and a ``required_strength``; a transaction is held
back while any earlier same-key transaction has not yet landed in a
block strong-committed to its required level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.client import Mempool
from repro.types.transaction import Payload, Transaction


@dataclass(slots=True)
class _TrackedTransaction:
    transaction: Transaction
    conflict_key: object
    required_strength: int
    included_in: object = None  # BlockId once seen in a committed block
    satisfied: bool = field(default=False)


class ConflictAwareMempool(Mempool):
    """Mempool with the Section 5 conflicting-transaction policy.

    ``bind(replica)`` connects the pool to one replica: payloads drain
    from the pool, strength queries go to the replica's commit tracker,
    and its commit stream tells the pool where its transactions landed.
    """

    def __init__(self, max_block_transactions: int = 1000) -> None:
        super().__init__(max_block_transactions=max_block_transactions)
        self._tracked: dict = {}
        self._replica = None
        self.deferred_count = 0

    def bind(self, replica) -> "ConflictAwareMempool":
        self._replica = replica
        replica.payload_source = self.payload_source
        replica.commit_tracker.add_commit_listener(self._note_inclusions)
        return self

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(
        self,
        transaction: Transaction,
        conflict_key=None,
        required_strength: int = 0,
    ) -> None:
        """Queue ``transaction``; high-value ones declare their needs.

        ``required_strength`` is the x level the containing block must
        reach before *later* transactions with the same ``conflict_key``
        may be proposed.
        """
        txid = super().submit(transaction)
        self._tracked[txid] = _TrackedTransaction(
            transaction=transaction,
            conflict_key=conflict_key,
            required_strength=required_strength,
        )

    # ------------------------------------------------------------------
    # commit stream
    # ------------------------------------------------------------------

    def _note_inclusions(self, block, now: float) -> None:
        """Commit listener: record which of our transactions ``block``
        carries."""
        del now
        for transaction in block.payload.transactions:
            tracked = self._tracked.get(transaction.txid())
            if tracked is not None and tracked.included_in is None:
                tracked.included_in = block.id()

    def _is_blocking(self, tracked: _TrackedTransaction) -> bool:
        """Does this earlier transaction still hold back its key?"""
        if tracked.satisfied or tracked.conflict_key is None:
            return False
        if tracked.required_strength <= 0:
            return False
        if tracked.included_in is None:
            return True  # not yet committed anywhere
        strength = self._replica.commit_tracker.strength_of(tracked.included_in)
        if strength >= tracked.required_strength:
            tracked.satisfied = True
            return False
        return True

    # ------------------------------------------------------------------
    # payload production (the leader-side rule)
    # ------------------------------------------------------------------

    def payload_source(self, now: float, parent_id=None) -> Payload:
        del now, parent_id
        chosen = []
        blocked_keys = set()
        for txid, transaction in self._pending.items():
            tracked = self._tracked[txid]
            key = tracked.conflict_key
            if key is not None:
                if key in blocked_keys:
                    self.deferred_count += 1
                    continue
                if tracked.included_in is not None and not self._is_blocking(
                    tracked
                ):
                    # Already committed and satisfied; drop from pending.
                    continue
                if tracked.included_in is not None:
                    # In flight, waiting on strength: blocks later txns.
                    blocked_keys.add(key)
                    self.deferred_count += 1
                    continue
                # Not yet included: propose it, and hold back later
                # same-key transactions if it demands strength.
                chosen.append(transaction)
                if tracked.required_strength > 0:
                    blocked_keys.add(key)
            else:
                chosen.append(transaction)
            if len(chosen) >= self.max_block_transactions:
                break
        self._garbage_collect()
        return Payload(transactions=tuple(chosen))

    def _garbage_collect(self) -> None:
        """Drop satisfied transactions from the pending queue."""
        done = [
            txid
            for txid, tracked in self._tracked.items()
            if tracked.included_in is not None and not self._is_blocking(tracked)
        ]
        for txid in done:
            self.remove(txid)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def status_of(self, transaction: Transaction) -> str:
        """``pending`` / ``in-flight`` / ``satisfied`` / ``unknown``."""
        tracked = self._tracked.get(transaction.txid())
        if tracked is None:
            return "unknown"
        if tracked.included_in is None:
            return "pending"
        if self._is_blocking(tracked):
            return "in-flight"
        return "satisfied"
