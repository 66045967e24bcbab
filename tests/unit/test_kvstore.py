"""KV state machine: commands, determinism, external validity."""

import hashlib
import random

import pytest

from repro.app import KVCommand, KVStateMachine
from repro.app.kvstore import PAYLOAD_BYTES
from repro.types.transaction import Transaction


class TestTrafficMix:
    """``KVCommand.sample`` is the one traffic mix both load generators
    draw from; the digests pin the first 200 commands of each stream as
    the simulator workload (``kv-workload:<seed>``) and the TCP client
    fleet (``rt-client:<seed>:<client>``) produced before they shared
    it, so every recorded run keeps its exact command sequence."""

    @pytest.mark.parametrize(
        "stream, digest",
        [
            (
                "kv-workload:1",
                "72daa77f97d132569d03d590cb790de8177fddaa112702625d54597838c866b8",
            ),
            (
                "rt-client:0:1",
                "5ab271e177de9bb329e31240961908fac0a75a70806ad37b1f7ebecd397fb2ad",
            ),
        ],
    )
    def test_first_200_commands_match_pinned_digest(self, stream, digest):
        rng = random.Random(stream)
        hasher = hashlib.sha256()
        for sequence in range(200):
            command = KVCommand.sample(rng, sequence)
            hasher.update(command.encode() + b"\n")
        assert hasher.hexdigest() == digest

    def test_set_commands_pad_to_payload_bytes(self):
        rng = random.Random("kv-workload:1")
        commands = [KVCommand.sample(rng, sequence) for sequence in range(300)]
        sizes = {
            len(command.encode()) for command in commands if command.op == "set"
        }
        # The sequence number's width moves the size by a byte or two.
        assert sizes and min(sizes) >= PAYLOAD_BYTES - 2
        assert max(sizes) == PAYLOAD_BYTES


class TestCommands:
    def test_encode_decode_roundtrip(self):
        command = KVCommand(op="transfer", key="a", key2="b", amount=7)
        assert KVCommand.decode(command.encode()) == command

    def test_decode_garbage_returns_none(self):
        assert KVCommand.decode(b"\xff\xfe") is None
        assert KVCommand.decode(b"just-text") is None

    def test_to_transaction_carries_payload(self):
        command = KVCommand(op="set", key="k", value="v")
        transaction = command.to_transaction(client_id=1, sequence=2)
        assert KVCommand.decode(transaction.payload) == command


class TestStateMachine:
    def test_set_get_del(self):
        machine = KVStateMachine()
        assert machine.apply(KVCommand(op="set", key="k", value="v"))
        assert dict(machine.items()).get("k") == "v"
        assert machine.apply(KVCommand(op="del", key="k"))
        assert dict(machine.items()).get("k") is None

    def test_transfer_moves_balance(self):
        machine = KVStateMachine()
        machine.apply(KVCommand(op="set", key="alice", value="10"))
        assert machine.apply(
            KVCommand(op="transfer", key="alice", key2="bob", amount=4)
        )
        assert dict(machine.items()).get("alice") == "6"
        assert dict(machine.items()).get("bob") == "4"

    def test_overdraft_rejected_without_effect(self):
        machine = KVStateMachine()
        machine.apply(KVCommand(op="set", key="alice", value="3"))
        assert not machine.apply(
            KVCommand(op="transfer", key="alice", key2="bob", amount=5)
        )
        assert dict(machine.items()).get("alice") == "3"
        assert dict(machine.items()).get("bob") is None
        assert machine.rejected == 1

    def test_negative_transfer_rejected(self):
        machine = KVStateMachine()
        machine.apply(KVCommand(op="set", key="alice", value="3"))
        assert not machine.apply(
            KVCommand(op="transfer", key="alice", key2="bob", amount=-1)
        )

    def test_self_transfer_conserves_balance(self):
        machine = KVStateMachine()
        machine.apply(KVCommand(op="set", key="alice", value="10"))
        assert machine.apply(
            KVCommand(op="transfer", key="alice", key2="alice", amount=4)
        )
        assert dict(machine.items()).get("alice") == "10"

    def test_unknown_op_rejected(self):
        machine = KVStateMachine()
        assert not machine.apply(KVCommand(op="increment", key="x"))

    def test_items_order_independent(self):
        machine_a = KVStateMachine()
        machine_a.apply(KVCommand(op="set", key="a", value="1"))
        machine_a.apply(KVCommand(op="set", key="b", value="2"))
        machine_b = KVStateMachine()
        machine_b.apply(KVCommand(op="set", key="b", value="2"))
        machine_b.apply(KVCommand(op="set", key="a", value="1"))
        assert machine_a.items() == machine_b.items()

    def test_items_sensitive_to_values(self):
        machine_a = KVStateMachine()
        machine_a.apply(KVCommand(op="set", key="a", value="1"))
        machine_b = KVStateMachine()
        machine_b.apply(KVCommand(op="set", key="a", value="2"))
        assert machine_a.items() != machine_b.items()

    def test_items_is_a_snapshot(self):
        machine = KVStateMachine()
        machine.apply(KVCommand(op="set", key="a", value="1"))
        before = machine.items()
        machine.apply(KVCommand(op="set", key="a", value="2"))
        assert before == (("a", "1"),)
        assert machine.items() == (("a", "2"),)

    def test_transfer_from_non_numeric_value_rejected(self):
        # set and transfer share a key space, so a transfer can meet a
        # non-numeric balance; it is externally invalid, not a crash.
        machine = KVStateMachine()
        machine.apply(KVCommand(op="set", key="alice", value="abc"))
        assert not machine.apply(
            KVCommand(op="transfer", key="alice", key2="bob", amount=0)
        )
        assert machine.items() == (("alice", "abc"),)
        assert machine.rejected == 1

    def test_undecodable_transaction_rejected(self):
        machine = KVStateMachine()
        transaction = Transaction(client_id=1, sequence=0, payload=b"\xff")
        assert not machine.apply_transaction(transaction)
        assert machine.rejected == 1
        assert machine.applied == 0

    def test_transaction_round_trip_applies(self):
        machine = KVStateMachine()
        command = KVCommand(op="set", key="k", value="v")
        assert machine.apply_transaction(command.to_transaction(1, 0))
        assert machine.items() == (("k", "v"),)
        assert machine.applied == 1

    def test_del_of_missing_key_applies(self):
        machine = KVStateMachine()
        assert machine.apply(KVCommand(op="del", key="absent"))
        assert machine.items() == ()
        assert machine.applied == 1
