"""Network layer: delays, jitter, GST, partitions, bandwidth, stats."""

import hashlib
import random

from repro.net.network import Network, NetworkConfig, wire_size_bytes
from repro.net.simulator import Simulator
from repro.net.topology import UniformTopology
from repro.types.block import make_genesis
from repro.types.messages import ProposalMsg, QCMsg, TimeoutMsg, VoteMsg
from repro.types.transaction import Payload, TxBatch
from repro.types.vote import Vote


class Recorder:
    """Captures deliveries with timestamps."""

    def __init__(self, simulator):
        self.simulator = simulator
        self.received = []

    def deliver(self, src, message):
        self.received.append((self.simulator.now, src, message))


def make_network(n=3, delay=0.01, **config_kwargs):
    simulator = Simulator()
    network = Network(
        simulator, UniformTopology(n, delay=delay), NetworkConfig(**config_kwargs)
    )
    recorders = []
    for replica_id in range(n):
        recorder = Recorder(simulator)
        network.register(replica_id, recorder)
        recorders.append(recorder)
    return simulator, network, recorders


class TestDelivery:
    def test_send_arrives_after_delay(self):
        simulator, network, recorders = make_network()
        network.send(0, 1, "hello")
        simulator.run_until(1.0)
        assert recorders[1].received == [(0.01, 0, "hello")]

    def test_self_send_is_instant(self):
        simulator, network, recorders = make_network()
        network.send(0, 0, "self")
        simulator.run_until(1.0)
        assert recorders[0].received[0][0] == 0.0

    def test_multicast_excludes_self_by_default(self):
        simulator, network, recorders = make_network()
        network.multicast(0, "m")
        simulator.run_until(1.0)
        assert recorders[0].received == []
        assert len(recorders[1].received) == 1
        assert len(recorders[2].received) == 1

    def test_multicast_include_self(self):
        simulator, network, recorders = make_network()
        network.multicast(0, "m", include_self=True)
        simulator.run_until(1.0)
        assert len(recorders[0].received) == 1

    def test_unregistered_destination_dropped(self):
        simulator, network, _ = make_network()
        network.unregister(2)
        network.send(0, 2, "gone")
        simulator.run_until(1.0)
        assert network.dropped_to_unregistered == 1

    def test_jitter_within_bound(self):
        simulator, network, recorders = make_network(jitter=0.005, seed=7)
        for _ in range(20):
            network.send(0, 1, "x")
        simulator.run_until(1.0)
        times = [t for t, _, _ in recorders[1].received]
        assert all(0.01 <= t <= 0.015 + 1e-9 for t in times)
        assert len(set(times)) > 1  # jitter actually varies

    def test_deterministic_for_fixed_seed(self):
        def run():
            simulator, network, recorders = make_network(jitter=0.005, seed=3)
            for _ in range(5):
                network.send(0, 1, "x")
            simulator.run_until(1.0)
            return [t for t, _, _ in recorders[1].received]

        assert run() == run()


class TestGST:
    def test_pre_gst_messages_delayed(self):
        simulator, network, recorders = make_network(
            gst=1.0, pre_gst_delay=0.5
        )
        network.send(0, 1, "early")
        simulator.run_until(2.0)
        arrival = recorders[1].received[0][0]
        assert arrival >= 1.0

    def test_post_gst_messages_normal(self):
        simulator, network, recorders = make_network(gst=1.0, pre_gst_delay=0.5)
        simulator.schedule_at(1.5, network.send, 0, 1, "late")
        simulator.run_until(3.0)
        arrival = recorders[1].received[0][0]
        assert abs(arrival - 1.51) < 1e-9


class TestPartitions:
    def test_cross_partition_held_until_heal(self):
        simulator, network, recorders = make_network()
        network.add_partition([(0,), (1, 2)], start=0.0, end=1.0)
        network.send(0, 1, "blocked")
        simulator.run_until(2.0)
        arrival = recorders[1].received[0][0]
        assert arrival >= 1.0

    def test_same_side_unaffected(self):
        simulator, network, recorders = make_network()
        network.add_partition([(0,), (1, 2)], start=0.0, end=1.0)
        network.send(1, 2, "ok")
        simulator.run_until(2.0)
        assert recorders[2].received[0][0] == 0.01

    def test_partition_window_only(self):
        simulator, network, recorders = make_network()
        network.add_partition([(0,), (1, 2)], start=0.5, end=1.0)
        network.send(0, 1, "before-window")
        simulator.run_until(2.0)
        assert recorders[1].received[0][0] == 0.01


class TestBandwidth:
    def test_uplink_serialization_staggers_multicast(self):
        simulator, network, recorders = make_network(
            bandwidth_bytes_per_sec=1000.0
        )
        genesis, genesis_qc = make_genesis()
        from repro.types.block import Block

        block = Block(
            parent_id=genesis.id(),
            qc=genesis_qc,
            round=1,
            height=1,
            proposer=0,
            payload=Payload(batch=TxBatch(count=1, size_bytes=1000)),
        )
        proposal = ProposalMsg(sender=0, round=1, block=block)
        network.multicast(0, proposal)
        simulator.run_until(100.0)
        t1 = recorders[1].received[0][0]
        t2 = recorders[2].received[0][0]
        # Each copy serializes ~3 s (3064 bytes at 1 KB/s): arrivals differ.
        assert abs(t1 - t2) > 1.0

    def test_no_bandwidth_means_synchronized_arrivals(self):
        simulator, network, recorders = make_network()
        network.multicast(0, "m")
        simulator.run_until(1.0)
        assert recorders[1].received[0][0] == recorders[2].received[0][0]


class TestWireSizes:
    def test_proposal_size_scales_with_payload(self):
        genesis, genesis_qc = make_genesis()
        from repro.types.block import Block

        small = Block(
            parent_id=genesis.id(), qc=genesis_qc, round=1, height=1,
            proposer=0, payload=Payload(batch=TxBatch(count=1, size_bytes=10)),
        )
        big = Block(
            parent_id=genesis.id(), qc=genesis_qc, round=1, height=1,
            proposer=0,
            payload=Payload(batch=TxBatch(count=1000, size_bytes=450_000)),
        )
        assert wire_size_bytes(
            ProposalMsg(sender=0, round=1, block=big)
        ) > wire_size_bytes(ProposalMsg(sender=0, round=1, block=small))

    def test_vote_smaller_than_proposal(self):
        genesis, genesis_qc = make_genesis()
        from repro.types.block import Block

        block = Block(
            parent_id=genesis.id(), qc=genesis_qc, round=1, height=1,
            proposer=0, payload=Payload(batch=TxBatch(count=1, size_bytes=10)),
        )
        vote = Vote(block_id=block.id(), block_round=1, height=1, voter=0)
        assert wire_size_bytes(VoteMsg(sender=0, vote=vote)) < wire_size_bytes(
            ProposalMsg(sender=0, round=1, block=block)
        )

    def test_qc_msg_size_scales_with_vote_count(self):
        # A QCMsg carries its certificate's votes on the wire, so its
        # size grows with the quorum — and always exceeds one vote.
        genesis, genesis_qc = make_genesis()
        from dataclasses import replace

        from repro.types.quorum_cert import QuorumCertificate

        votes = tuple(
            Vote(block_id=genesis.id(), block_round=1, height=1, voter=voter)
            for voter in range(5)
        )
        small_qc = QuorumCertificate(
            block_id=genesis.id(), round=1, height=1, votes=votes[:3]
        )
        big_qc = replace(small_qc, votes=votes)
        small = wire_size_bytes(QCMsg(sender=0, qc=small_qc))
        big = wire_size_bytes(QCMsg(sender=0, qc=big_qc))
        assert small < big
        assert small > wire_size_bytes(VoteMsg(sender=0, vote=votes[0]))

    def test_stats_track_types(self):
        simulator, network, _ = make_network()
        genesis, genesis_qc = make_genesis()
        qc = genesis_qc
        network.send(0, 1, TimeoutMsg(sender=0, round=1, qc_high=qc))
        network.send(0, 1, TimeoutMsg(sender=0, round=2, qc_high=qc))
        simulator.run_until(1.0)
        stats = network.stats()
        assert stats["sent"] == 2
        assert stats["by_type"]["TimeoutMsg"] == 2
        _, fresh, _ = make_network()
        assert fresh.stats()["sent"] == 0
        del genesis


class TestPartitionPruning:
    def test_healed_partitions_are_pruned(self):
        simulator, network, recorders = make_network()
        network.add_partition([(0,), (1, 2)], start=0.0, end=1.0)
        network.add_partition([(0, 1), (2,)], start=0.5, end=2.0)
        assert len(network._partitions) == 2
        simulator.run_until(1.2)
        network.send(0, 1, "after-first-heal")  # triggers the prune
        assert len(network._partitions) == 1
        assert network._partitions[0].end == 2.0
        simulator.run_until(2.5)
        network.send(0, 2, "after-all-heals")
        assert network._partitions == []
        assert network._partitions_min_end == float("inf")

    def test_pruning_preserves_delivery_times(self):
        def run(extra_dead_partitions):
            simulator, network, recorders = make_network(jitter=0.003, seed=9)
            # Early partitions that heal before the traffic we time.
            for index in range(extra_dead_partitions):
                network.add_partition(
                    [(0,), (1, 2)], start=0.0, end=0.1 + index * 0.01
                )
            network.add_partition([(0,), (1, 2)], start=1.0, end=2.0)
            simulator.schedule_at(0.5, network.send, 0, 1, "mid")
            simulator.schedule_at(1.5, network.send, 0, 1, "held")
            simulator.schedule_at(2.5, network.send, 0, 1, "late")
            simulator.run_until(5.0)
            return [stamp for stamp, _, _ in recorders[1].received]

        assert run(0) == run(8)

    def test_active_partition_still_separates_after_prune(self):
        simulator, network, recorders = make_network()
        network.add_partition([(0,), (1, 2)], start=0.0, end=0.5)
        network.add_partition([(0,), (1, 2)], start=1.0, end=3.0)
        simulator.run_until(0.7)
        network.send(0, 1, "between-windows")  # prunes the healed window
        simulator.schedule_at(1.2, network.send, 0, 1, "held")
        simulator.run_until(5.0)
        stamps = [stamp for stamp, _, _ in recorders[1].received]
        assert abs(stamps[0] - 0.71) < 1e-9
        assert stamps[1] >= 3.0


class TestWireSizeDispatch:
    def test_unknown_types_get_header_size_and_are_memoized(self):
        from repro.net.network import _HEADER_SIZE, _WIRE_SIZERS

        class Oddball:
            pass

        assert wire_size_bytes(Oddball()) == _HEADER_SIZE
        assert Oddball in _WIRE_SIZERS

    def test_message_subclasses_resolve_like_isinstance(self):
        from dataclasses import dataclass

        from repro.net.network import _TIMEOUT_SIZE
        from repro.types.quorum_cert import QuorumCertificate

        @dataclass(frozen=True)
        class FancyTimeout(TimeoutMsg):
            pass

        genesis, genesis_qc = make_genesis()
        del genesis
        message = FancyTimeout(sender=0, round=1, qc_high=genesis_qc)
        assert wire_size_bytes(message) == _TIMEOUT_SIZE
        assert isinstance(genesis_qc, QuorumCertificate)

    def test_counter_stats_by_type(self):
        simulator, network, recorders = make_network()
        del simulator, recorders
        network.send(0, 1, "a")
        network.send(0, 2, "b")
        stats = network.stats()
        assert stats["by_type"] == {"str": 2}
        _, fresh, _ = make_network()
        assert fresh.stats()["by_type"] == {}


class TestAtLeastOnceDelivery:
    def test_duplicate_rate_one_delivers_every_unicast_twice(self):
        simulator, network, recorders = make_network(duplicate_rate=1.0)
        for _ in range(5):
            network.send(0, 1, "m")
        simulator.run_until(1.0)
        assert len(recorders[1].received) == 10
        assert network.messages_duplicated == 5
        assert network.stats()["duplicated"] == 5
        # The original copy still counts once in sent.
        assert network.stats()["sent"] == 5

    def test_reorder_window_can_swap_consecutive_sends(self):
        simulator, network, recorders = make_network(
            delay=0.001, reorder_window=0.1
        )
        for index in range(40):
            network.send(0, 1, index)
        simulator.run_until(1.0)
        order = [message for _, _, message in recorders[1].received]
        assert sorted(order) == list(range(40))  # reliable: nothing lost
        assert order != list(range(40))  # ...but not in send order

    def test_reorder_delay_bounded_by_window(self):
        simulator, network, recorders = make_network(
            delay=0.01, reorder_window=0.05
        )
        for _ in range(30):
            network.send(0, 1, "m")
        simulator.run_until(1.0)
        for arrival, _, _ in recorders[1].received:
            assert 0.01 <= arrival < 0.01 + 0.05

    def test_default_off_keeps_schedule_and_stats_shape(self):
        # Turning the knobs off must leave the delivery schedule and
        # the stats schema exactly as before the faults existed.
        simulator, network, recorders = make_network(jitter=0.002)
        for index in range(10):
            network.send(0, 1, index)
        simulator.run_until(1.0)
        baseline = [(time, message) for time, _, message in recorders[1].received]
        assert "duplicated" not in network.stats()

        simulator2, network2, recorders2 = make_network(
            jitter=0.002, duplicate_rate=0.0, reorder_window=0.0
        )
        for index in range(10):
            network2.send(0, 1, index)
        simulator2.run_until(1.0)
        replay = [(time, message) for time, _, message in recorders2[1].received]
        assert replay == baseline

    def test_delivery_faults_draw_from_their_own_stream(self):
        # Same seed, faults on: the *base* arrival pattern (jitter
        # stream) is untouched; only extra delay/duplicates appear.
        simulator, network, recorders = make_network(jitter=0.002)
        network.send(0, 1, "m")
        simulator.run_until(1.0)
        base_arrival = recorders[1].received[0][0]

        simulator2, network2, recorders2 = make_network(
            jitter=0.002, reorder_window=0.05
        )
        network2.send(0, 1, "m")
        simulator2.run_until(1.0)
        faulted_arrival = recorders2[1].received[0][0]
        assert base_arrival <= faulted_arrival < base_arrival + 0.05

    def test_duplicates_are_deterministic_across_replays(self):
        def run():
            simulator, network, recorders = make_network(
                duplicate_rate=0.4, reorder_window=0.03, seed=7
            )
            for index in range(25):
                network.send(0, 1, index)
            simulator.run_until(1.0)
            return [
                (round(time, 9), message)
                for time, _, message in recorders[1].received
            ]

        assert run() == run()


class LogRecorder:
    """Appends ``(dst, src, message, repr(time))`` to a shared log."""

    def __init__(self, simulator, replica_id, log):
        self.simulator = simulator
        self.replica_id = replica_id
        self.log = log

    def deliver(self, src, message):
        self.log.append(
            (self.replica_id, src, message, repr(self.simulator.now))
        )


#: One fixed sequence of unicasts and multicasts: ``(time, method, args)``.
#: Every step mixes include_self on and off, and two steps self-send.
_SCHEDULE_CALLS = (
    (0.0, "multicast", (0, "a0")),
    (0.0, "multicast", (1, "a1", True)),
    (0.0, "send", (2, 3, "a2")),
    (0.0, "send", (3, 3, "a3-self")),
    (0.2, "multicast", (4, "b0", True)),
    (0.2, "send", (0, 4, "b1")),
    (0.2, "multicast", (2, "b2")),
    (0.7, "multicast", (0, "c0")),
    (0.7, "send", (1, 1, "c1-self")),
    (0.7, "multicast", (3, "c2", True)),
)

#: The partition rows' windows: the first heals before the 0.2 s step
#: (which prunes it), the second is live at 0.2 s and healed by 0.7 s.
_SCHEDULE_PARTITIONS = (
    (((0, 1), (2, 3, 4)), 0.0, 0.05),
    (((0,), (1, 2, 3, 4)), 0.1, 0.6),
)

#: NetworkConfig kwargs, partitions on/off, and the sha256 prefix of the
#: ordered delivery log.  Moving any RNG draw or float operation on the
#: delivery path changes a digest; regenerate only on purpose.
_SCHEDULE_CASES = {
    "plain": ({}, False, "70ff81db1b0cf232"),
    "jitter": ({"jitter": 0.004, "seed": 5}, False, "cc236156303851da"),
    "bandwidth_shuffle": (
        {"bandwidth_bytes_per_sec": 4000.0, "jitter": 0.002, "seed": 1},
        False,
        "9f83f997f2db96a5",
    ),
    "partitions": ({"jitter": 0.002, "seed": 2}, True, "f3153f26f9d8b624"),
    "pre_gst": (
        {"gst": 0.3, "pre_gst_delay": 0.1, "jitter": 0.001, "seed": 3},
        False,
        "df369cd2d8fc8ec4",
    ),
    "at_least_once": (
        {"duplicate_rate": 0.5, "reorder_window": 0.01, "jitter": 0.002,
         "seed": 4},
        False,
        "b401bc8aa90da451",
    ),
    "everything": (
        {"jitter": 0.003, "seed": 6, "gst": 0.5, "pre_gst_delay": 0.05,
         "bandwidth_bytes_per_sec": 2500.0,
         "duplicate_rate": 0.3, "reorder_window": 0.02},
        True,
        "71f789bd7dfe0b2f",
    ),
}


def _delivery_log_digest(config_kwargs, with_partitions):
    simulator = Simulator()
    network = Network(
        simulator, UniformTopology(5, delay=0.01), NetworkConfig(**config_kwargs)
    )
    log = []
    for replica_id in range(5):
        network.register(replica_id, LogRecorder(simulator, replica_id, log))
    if with_partitions:
        for groups, start, end in _SCHEDULE_PARTITIONS:
            network.add_partition(groups, start=start, end=end)
    for time, method, args in _SCHEDULE_CALLS:
        simulator.schedule_at(time, getattr(network, method), *args)
    simulator.run_until(10.0)
    return hashlib.sha256(repr(log).encode()).hexdigest()[:16]


class TestDeliverySchedule:
    def test_delivery_log_matches_pinned_digest(self):
        got = {
            name: _delivery_log_digest(kwargs, with_partitions)
            for name, (kwargs, with_partitions, _) in _SCHEDULE_CASES.items()
        }
        want = {name: case[2] for name, case in _SCHEDULE_CASES.items()}
        assert got == want

    def test_multicast_stats_equal_the_same_copies_sent_one_by_one(self):
        genesis, genesis_qc = make_genesis()
        del genesis
        timeout = TimeoutMsg(sender=1, round=3, qc_high=genesis_qc)
        for include_self in (False, True):
            destinations = [
                dst for dst in range(4) if include_self or dst != 1
            ]
            simulator, multi, _ = make_network(
                n=4, bandwidth_bytes_per_sec=1000.0
            )
            for message in (timeout, "tail"):
                multi.multicast(1, message, include_self=include_self)
            simulator.run_until(100.0)

            simulator, uni, _ = make_network(n=4, bandwidth_bytes_per_sec=1000.0)
            for message in (timeout, "tail"):
                for dst in destinations:
                    uni.send(1, dst, message)
            simulator.run_until(100.0)
            assert multi.stats() == uni.stats()
            assert multi.stats()["sent"] == 2 * len(destinations)

    def test_multicast_to_nobody_counts_nothing(self):
        _, network, _ = make_network(n=1)
        network.multicast(0, "alone")
        assert network.stats() == {
            "sent": 0, "delivered": 0, "bytes": 0, "by_type": {},
        }

    def test_scaled_random_jitter_is_bitwise_uniform(self):
        # Every jitter the smoke fuzz profile can draw, round(U[0,
        # 0.006], 4), which covers every jitter set in scenarios/.
        for step in range(61):
            jitter = round(step * 1e-4, 4)
            scaled, uniform = random.Random(step), random.Random(step)
            for _ in range(10_000):
                assert jitter * scaled.random() == uniform.uniform(0.0, jitter)
