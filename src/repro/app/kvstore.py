"""A deterministic key-value state machine over the committed log.

:class:`KVStateMachine` applies ``SET``/``DEL``/``TRANSFER`` commands
encoded in transaction payloads; :class:`LedgerExecutor` applies a
replica's blocks to a state machine as they commit.  Determinism
is the whole point: after any prefix of the log, every honest replica
must hold exactly the same state (compare :meth:`KVStateMachine.items`),
which is the linearizability check the SMR definition demands.

Commands serialize into :class:`~repro.types.transaction.Transaction`
payloads, so the application layer rides on the ordinary client path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types.transaction import Transaction

#: Bounded key space keeps set/del/transfer commands colliding enough
#: to exercise external validity (failed transfers) deterministically.
_KEY_SPACE = 256
#: Size a sampled ``set`` command's value is padded towards.
PAYLOAD_BYTES = 64


@dataclass(frozen=True, slots=True)
class KVCommand:
    """One state-machine command.

    ``op`` ∈ {"set", "del", "transfer"}:

    * ``set key value``        — write a value;
    * ``del key``              — remove a key;
    * ``transfer key key2 n``  — move ``n`` units between integer
      accounts (external validity: fails, without effect, when the
      source balance is insufficient — the "externally valid"
      application predicate of Section 2).
    """

    op: str
    key: str
    value: str = ""
    key2: str = ""
    amount: int = 0

    def encode(self) -> bytes:
        return "|".join(
            (self.op, self.key, self.value, self.key2, str(self.amount))
        ).encode("utf-8")

    @classmethod
    def decode(cls, payload: bytes) -> "KVCommand | None":
        try:
            op, key, value, key2, amount = payload.decode("utf-8").split("|")
            return cls(op=op, key=key, value=value, key2=key2,
                       amount=int(amount))
        except (ValueError, UnicodeDecodeError):
            return None

    @classmethod
    def sample(cls, rng, sequence: int) -> "KVCommand":
        """The load generators' traffic mix, drawn from ``rng``: 85 %
        ``set`` (value padded towards :data:`PAYLOAD_BYTES`), 10 %
        ``transfer``, 5 % ``del``."""
        roll = rng.random()
        key = f"k{rng.randrange(_KEY_SPACE)}"
        if roll < 0.85:
            pad = "x" * max(0, PAYLOAD_BYTES - len(key) - 12)
            return cls(op="set", key=key, value=f"{sequence}:{pad}")
        if roll < 0.95:
            other = f"k{rng.randrange(_KEY_SPACE)}"
            return cls(op="transfer", key=key, key2=other, amount=1)
        return cls(op="del", key=key)

    def to_transaction(self, client_id: int, sequence: int,
                       submitted_at: float = 0.0) -> Transaction:
        return Transaction(
            client_id=client_id,
            sequence=sequence,
            payload=self.encode(),
            submitted_at=submitted_at,
        )


class KVStateMachine:
    """Deterministic in-memory KV store with integer accounts."""

    def __init__(self) -> None:
        self._state: dict[str, str] = {}
        self.applied = 0
        self.rejected = 0

    def apply(self, command: KVCommand) -> bool:
        """Apply one command; returns False when externally invalid."""
        if command.op == "set":
            self._state[command.key] = command.value
        elif command.op == "del":
            self._state.pop(command.key, None)
        elif command.op == "transfer":
            source = self._as_int(self._state.get(command.key, "0"))
            destination = self._as_int(self._state.get(command.key2, "0"))
            if (
                source is None
                or destination is None
                or command.amount < 0
                or source < command.amount
            ):
                # Externally invalid (Section 2): insufficient balance,
                # or an endpoint holding a non-numeric value (the key
                # spaces of set and transfer overlap by design).
                self.rejected += 1
                return False
            if command.key != command.key2:
                self._state[command.key] = str(source - command.amount)
                self._state[command.key2] = str(destination + command.amount)
        else:
            self.rejected += 1
            return False
        self.applied += 1
        return True

    @staticmethod
    def _as_int(value) -> int | None:
        try:
            return int(value or "0")
        except ValueError:
            return None

    def apply_transaction(self, transaction: Transaction) -> bool:
        command = KVCommand.decode(transaction.payload)
        if command is None:
            self.rejected += 1
            return False
        return self.apply(command)

    def items(self) -> tuple:
        """The full state as sorted ``(key, value)`` pairs (wire form)."""
        return tuple(sorted(self._state.items()))

    def install(self, items) -> None:
        """Replace the full state with a snapshot's key/value pairs."""
        self._state = {key: value for key, value in items}


class LedgerExecutor:
    """Executes committed blocks into a state machine as they commit.

    :meth:`apply_block` is a commit listener: subscribe it with
    ``replica.commit_tracker.add_commit_listener(executor.apply_block)``
    before the run and it sees every committed block once, in commit
    order.
    """

    def __init__(self, state_machine: KVStateMachine | None = None):
        self.state = state_machine or KVStateMachine()
        self._applied_txids: set = set()
        self.blocks_executed = 0
        self.duplicates_skipped = 0

    def apply_block(self, block, now: float | None = None) -> None:
        """Apply one committed block's transactions.

        A transaction may legitimately appear in several blocks (one
        on an abandoned fork is proposed again), so execution
        deduplicates by transaction id — the standard SMR exactly-once
        rule.
        """
        del now
        for transaction in block.payload.transactions:
            txid = transaction.txid()
            if txid in self._applied_txids:
                self.duplicates_skipped += 1
                continue
            self._applied_txids.add(txid)
            self.state.apply_transaction(transaction)
        self.blocks_executed += 1

    def install_snapshot(
        self,
        state_items,
        applied_txids,
        applied_count: int = 0,
        rejected_count: int = 0,
    ) -> None:
        """Replace the executor's world with a validated checkpoint.

        ``applied_txids`` is the dedup set at the checkpoint boundary —
        without it a transaction committed both below and above the
        checkpoint would be applied twice on the joiner and its state
        would diverge.
        """
        self.state = KVStateMachine()
        self.state.install(state_items)
        self.state.applied = applied_count
        self.state.rejected = rejected_count
        self._applied_txids = set(applied_txids)
        self.blocks_executed = 0
        self.duplicates_skipped = 0

    def applied_txids(self) -> tuple:
        """The dedup set as a sorted tuple (digest/wire form)."""
        return tuple(sorted(self._applied_txids, key=lambda txid: txid.value))
