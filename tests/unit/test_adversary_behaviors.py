"""Adversary behaviour factories: each deviates exactly as declared."""

from repro.adversary import (
    make_equivocating_leader,
    make_lazy_voter,
    make_silent,
    make_withholding_leader,
)
import pytest

from repro.protocols.base import ReplicaConfig
from repro.protocols.diembft import DiemBFTReplica
from repro.protocols.sft_diembft import SFTDiemBFTReplica
from repro.protocols.sft_streamlet import SFTStreamletReplica
from repro.protocols.streamlet import StreamletConfig
from tests.conftest import make_isolated_replica, small_experiment


def run_with_override(replica_id, replica_class, duration=6.0, **overrides):
    spec = small_experiment(duration=duration, **overrides)
    return spec.build(replica_overrides={replica_id: replica_class}).run()


def _ids_at_round(store, round_number):
    return {
        block.id() for block in store.all_blocks() if block.round == round_number
    }


class TestSilent:
    def test_silent_replica_never_votes(self):
        cluster = run_with_override(6, make_silent(SFTDiemBFTReplica))
        assert cluster.replicas[6].metrics.snapshot()["votes_sent"] == 0

    def test_silent_replica_still_proposes(self):
        # Silence attacks strong-commit liveness, not leadership.
        cluster = run_with_override(6, make_silent(SFTDiemBFTReplica))
        assert cluster.replicas[6].metrics.snapshot()["blocks_proposed"] > 0

    def test_factory_names_are_descriptive(self):
        assert "Silent" in make_silent(SFTDiemBFTReplica).__name__

    def test_works_on_plain_diembft_too(self):
        cluster = run_with_override(6, make_silent(DiemBFTReplica),
                                    protocol="diembft")
        assert cluster.replicas[6].metrics.snapshot()["votes_sent"] == 0
        assert len(cluster.replicas[0].commit_tracker.commit_order) > 20


class TestEquivocatingLeader:
    def test_conflicting_blocks_across_halves(self):
        cluster = run_with_override(
            2, make_equivocating_leader(SFTDiemBFTReplica)
        )
        # Each network half received a different variant, so for the
        # Byzantine leader's rounds the halves hold different blocks.
        low_half = cluster.replicas[0].store   # ids < n/2 get variant 0
        high_half = cluster.replicas[6].store  # ids >= n/2 get variant 1
        n = cluster.config.n
        diverged = []
        for round_number in range(1, cluster.replicas[0].current_round):
            if round_number % n != 2:
                continue
            low_blocks = _ids_at_round(low_half, round_number)
            high_blocks = _ids_at_round(high_half, round_number)
            if low_blocks and high_blocks and low_blocks != high_blocks:
                diverged.append(round_number)
        assert diverged

    def test_half_network_split_delivery(self):
        cluster = run_with_override(
            2, make_equivocating_leader(SFTDiemBFTReplica)
        )
        # Replicas in different halves voted for different variants at
        # some equivocated round: r_vote advanced everywhere regardless.
        for replica in cluster.replicas:
            assert replica.r_vote > 0


class TestWithholdingLeader:
    def test_unreached_replicas_time_out(self):
        cluster = run_with_override(
            4, make_withholding_leader(SFTDiemBFTReplica, reach=0.3)
        )
        timeouts = sum(
            replica.metrics.snapshot()["timeouts_sent"]
            for index, replica in enumerate(cluster.replicas)
            if index != 4
        )
        assert timeouts > 0

    def test_full_reach_behaves_honestly(self):
        cluster = run_with_override(
            4, make_withholding_leader(SFTDiemBFTReplica, reach=1.0),
            duration=4.0,
        )
        honest = [r for i, r in enumerate(cluster.replicas) if i != 4]
        assert all(
            replica.metrics.snapshot()["timeouts_sent"] == 0 for replica in honest
        )


@pytest.mark.parametrize(
    "replica_class, config",
    [
        (SFTDiemBFTReplica, ReplicaConfig(n=4, f=1)),
        (SFTStreamletReplica, StreamletConfig(n=4, f=1)),
    ],
)
class TestLeaderFactoriesOnTheWire:
    """Both families build through one ``_signed_proposal`` seam; what
    the Byzantine leaders put on the wire is pinned down to the block
    ids, because the bench's fault workload and the fuzz corpus replay
    them (ids recorded before the factories were unified)."""

    def _led_round(self, factory, replica_class, config):
        leader, _, _, sent = make_isolated_replica(
            factory(replica_class), config, replica_id=1
        )
        leader._propose(1, "start")
        assert leader.metrics.snapshot()["blocks_proposed"] == 1
        assert all(msg.signature is not None and msg.tc is None for _, msg in sent)
        return [(dst, msg.block) for dst, msg in sent]

    def test_equivocator(self, replica_class, config):
        wire = self._led_round(make_equivocating_leader, replica_class, config)
        assert [dst for dst, _ in wire] == [0, 1, 2, 3]
        assert [block.id().hex()[:16] for _, block in wire] == (
            ["ed8f68eb702b15db"] * 2 + ["b8d7bfbb5f71b3b7"] * 2
        )
        assert [block.commit_log for _, block in wire] == (
            [(("equivocation", 0),)] * 2 + [(("equivocation", 1),)] * 2
        )
        assert {(block.round, block.parent_id) for _, block in wire} == {
            (1, wire[0][1].parent_id)
        }

    def test_withholder(self, replica_class, config):
        wire = self._led_round(make_withholding_leader, replica_class, config)
        assert [dst for dst, _ in wire] == [0, 1]  # reach 0.5, self included
        assert {block.id().hex()[:16] for _, block in wire} == {"a178626abafe4f05"}
        assert wire[0][1].commit_log == ()


class TestLazyVoter:
    def test_votes_delayed_not_dropped(self):
        cluster = run_with_override(
            6, make_lazy_voter(SFTDiemBFTReplica, delay=0.2), duration=6.0
        )
        lazy = cluster.replicas[6]
        assert lazy.metrics.snapshot()["votes_sent"] > 0
        # Its votes arrive too late for QCs: never among the endorsers
        # of fresh blocks at other replicas.
        observer = cluster.replicas[0]
        recent = observer.commit_tracker.commit_order[-5:]
        for event in recent:
            qc = observer.store.qc_for(event.block_id)
            if qc is not None and qc.votes:
                assert 6 not in qc.voters()

    def test_zero_delay_equals_honest(self):
        lazy_cluster = run_with_override(
            6, make_lazy_voter(SFTDiemBFTReplica, delay=0.0), duration=4.0
        )
        honest_cluster = small_experiment(duration=4.0).build().run()
        lazy_commits = [
            event.block_id
            for event in lazy_cluster.replicas[0].commit_tracker.commit_order
        ]
        honest_commits = [
            event.block_id
            for event in honest_cluster.replicas[0].commit_tracker.commit_order
        ]
        # Same block contents; timing may differ by timer scheduling.
        shared = min(len(lazy_commits), len(honest_commits))
        assert lazy_commits[:shared] == honest_commits[:shared]
