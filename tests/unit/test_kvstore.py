"""KV state machine: commands, determinism, external validity."""

import hashlib
import random

import pytest

from repro.app import KVCommand, KVStateMachine


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
            command = KVCommand.sample(rng, sequence, payload_bytes=64)
            hasher.update(command.encode() + b"\n")
        assert hasher.hexdigest() == digest


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
        assert machine.get("k") == "v"
        assert machine.apply(KVCommand(op="del", key="k"))
        assert machine.get("k") is None

    def test_transfer_moves_balance(self):
        machine = KVStateMachine()
        machine.apply(KVCommand(op="set", key="alice", value="10"))
        assert machine.apply(
            KVCommand(op="transfer", key="alice", key2="bob", amount=4)
        )
        assert machine.get("alice") == "6"
        assert machine.get("bob") == "4"

    def test_overdraft_rejected_without_effect(self):
        machine = KVStateMachine()
        machine.apply(KVCommand(op="set", key="alice", value="3"))
        assert not machine.apply(
            KVCommand(op="transfer", key="alice", key2="bob", amount=5)
        )
        assert machine.get("alice") == "3"
        assert machine.get("bob") is None
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
        assert machine.get("alice") == "10"

    def test_unknown_op_rejected(self):
        machine = KVStateMachine()
        assert not machine.apply(KVCommand(op="increment", key="x"))

    def test_state_hash_order_independent(self):
        machine_a = KVStateMachine()
        machine_a.apply(KVCommand(op="set", key="a", value="1"))
        machine_a.apply(KVCommand(op="set", key="b", value="2"))
        machine_b = KVStateMachine()
        machine_b.apply(KVCommand(op="set", key="b", value="2"))
        machine_b.apply(KVCommand(op="set", key="a", value="1"))
        assert machine_a.state_hash() == machine_b.state_hash()

    def test_state_hash_sensitive_to_values(self):
        machine_a = KVStateMachine()
        machine_a.apply(KVCommand(op="set", key="a", value="1"))
        machine_b = KVStateMachine()
        machine_b.apply(KVCommand(op="set", key="a", value="2"))
        assert machine_a.state_hash() != machine_b.state_hash()

    def test_snapshot_is_copy(self):
        machine = KVStateMachine()
        machine.apply(KVCommand(op="set", key="a", value="1"))
        snapshot = machine.snapshot()
        snapshot["a"] = "tampered"
        assert machine.get("a") == "1"
