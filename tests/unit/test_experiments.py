"""Campaign engine units: specs, fault mixes, expansion, baselines."""

import json
from dataclasses import fields

import pytest

from repro.experiments import (
    Campaign,
    FaultMix,
    PartitionWindow,
    ScenarioSpec,
    collect_job_metrics,
    load_scenario,
    moved_digests,
    spec_from_mapping,
)
from repro.net.network import NetworkConfig
from repro.protocols.base import ReplicaConfig
from repro.protocols.streamlet.replica import StreamletConfig
from repro.runtime.metrics import strong_latency_series

# Every knob a spec forwards by name, with a non-default value to carry.
# The key sets are pins: a knob that silently stops (or starts) being
# forwarded fails ``test_forwarded_names_are_pinned`` with its name.
REPLICA_KNOBS = {
    "n": 10,
    "f": 1,
    "round_timeout": 0.75,
    "timeout_multiplier": 2.0,
    "qc_extra_wait": 0.05,
    "generalized_intervals": True,
    "interval_window": 5,
    "naive_accounting": True,
    "verify_signatures": False,
    "block_batch_count": 3,
    "block_batch_bytes": 77,
    "sync_enabled": False,
    "batch_size": 5,
    "pipelined_proposals": True,
    "linear_votes": True,
    "checkpoint_interval": 4,
    "trace_level": "spans",
    "flight_recorder": False,
}
NETWORK_KNOBS = {
    "jitter": 0.003,
    "gst": 1.5,
    "pre_gst_delay": 0.2,
    "bandwidth_bytes_per_sec": 1e6,
    "duplicate_rate": 0.1,
    "reorder_window": 0.02,
}


def _shared_names(target) -> set:
    spec_names = {spec_field.name for spec_field in fields(ScenarioSpec)}
    return spec_names & {target_field.name for target_field in fields(target)}


class TestKnobForwarding:
    def test_forwarded_names_are_pinned(self):
        assert _shared_names(ReplicaConfig) == set(REPLICA_KNOBS)
        assert _shared_names(StreamletConfig) == set(REPLICA_KNOBS)
        assert _shared_names(NetworkConfig) == set(NETWORK_KNOBS)

    @pytest.mark.parametrize(
        "protocol, config_class",
        [("sft-diembft", ReplicaConfig), ("sft-streamlet", StreamletConfig)],
    )
    @pytest.mark.parametrize("name", sorted(REPLICA_KNOBS))
    def test_replica_knob_reaches_replica_config(
        self, name, protocol, config_class
    ):
        value = REPLICA_KNOBS[name]
        assert value != getattr(ScenarioSpec(), name)
        spec = ScenarioSpec(protocol=protocol, **{name: value})
        config = spec.replica_config(0)
        assert type(config) is config_class
        assert getattr(config, name) == value

    @pytest.mark.parametrize("name", sorted(NETWORK_KNOBS))
    def test_network_knob_reaches_network_config(self, name):
        value = NETWORK_KNOBS[name]
        assert value != getattr(ScenarioSpec(), name)
        config = ScenarioSpec(**{name: value}).network_config(seed=5)
        assert getattr(config, name) == value
        assert config.seed == 5

    def test_derived_replica_values(self):
        spec = ScenarioSpec(n=10, observers=(0,))
        assert spec.replica_config(0).f == 3  # f=None resolves to (n-1)//3
        assert spec.replica_config(0).observer
        assert not spec.replica_config(5).observer
        slot = ScenarioSpec(protocol="streamlet", streamlet_round_duration=0.3)
        assert slot.replica_config(0).round_duration == 0.3

    @pytest.mark.parametrize("protocol", ["sft-diembft", "sft-streamlet"])
    def test_leader_rotation_is_round_robin(self, protocol):
        config = ScenarioSpec(protocol=protocol, n=7).replica_config(0)
        assert [config.leader_of(r) for r in range(1, 16)] == [
            r % 7 for r in range(1, 16)
        ]


class TestScenarioSpec:
    def test_defaults_resolve_to_cluster(self):
        spec = ScenarioSpec(name="x", n=7)
        cluster = spec.build().build()
        assert cluster.config is spec  # the spec is the config, not a copy
        assert spec.protocol == "sft-diembft"
        assert len(cluster.replicas) == 7
        assert cluster.seed == 1
        assert cluster.crash_schedule == ()
        assert cluster.recovery_schedule == ()
        assert cluster.network._partitions == []

    def test_seed_override(self):
        spec = ScenarioSpec(name="x", seeds=(3, 4))
        assert spec.build().seed == 3
        assert spec.build(9).seed == 9
        assert spec.build(9).network.config.seed == 9

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            ScenarioSpec(name="x", protocol="pbft")

    def test_with_overrides_dotted_fault_key(self):
        spec = ScenarioSpec(name="x", n=10)
        derived = spec.with_overrides(**{"faults.crash": 2, "n": 13})
        assert derived.faults.crash == 2
        assert derived.n == 13
        assert spec.faults.crash == 0  # original untouched

    def test_fault_mix_exceeding_n_rejected(self):
        with pytest.raises(ValueError, match="fault mix"):
            ScenarioSpec(name="x", n=4, faults=FaultMix(crash=3, silent=2))

    def test_build_applies_faults_and_partitions(self):
        spec = ScenarioSpec(
            name="x",
            n=7,
            duration=1.0,
            faults=FaultMix(silent=1, crash=1),
            partitions=(PartitionWindow(start=0.2, end=0.4),),
        )
        cluster = spec.build().build()
        # Silent behaviour on the top id, crash scheduled for the next.
        assert cluster.byzantine_ids == frozenset({6})
        assert type(cluster.replicas[6]).__name__.startswith("Silent")
        assert cluster.crash_schedule == ((5, 0.0),)
        assert len(cluster.network._partitions) == 1

    def test_explicit_crash_schedule_keyword(self):
        spec = ScenarioSpec(name="x", n=7, duration=2.0)
        cluster = spec.build(1, crash_schedule=((3, 1.0),)).run()
        crashed = [r.replica_id for r in cluster.replicas if r.crashed]
        assert crashed == [3]

    def test_crash_schedule_defaults_to_the_fault_mix(self):
        spec = ScenarioSpec(name="x", n=7, faults=FaultMix(crash=2, crash_at=0.5))
        schedule = spec.build(1).crash_schedule
        assert schedule == spec.faults.crash_schedule(7) == ((6, 0.5), (5, 0.5))

    def test_series_observers_narrow_the_view_not_the_spec(self):
        spec = ScenarioSpec(name="x", n=4, duration=2.0, series_observers=(0, 2))
        cluster = spec.build().run()
        assert len(cluster.observer_replicas()) == 4
        narrowed = cluster.observer_replicas(spec.series_observers)
        assert [replica.replica_id for replica in narrowed] == [0, 2]
        metrics = collect_job_metrics(cluster, spec)
        assert spec.observers == "all"  # analysis reads, never writes
        everyone = strong_latency_series(cluster, spec.ratios, spec.duration * 0.66)
        for point, full in zip(metrics["strong_latency_series"], everyone):
            assert 0 < point["eligible"] < full.eligible

class TestFaultMix:
    def test_assignment_is_deterministic_and_disjoint(self):
        mix = FaultMix(crash=2, silent=1, equivocate=1, lazy=1)
        assigned = mix.assignments(10)
        ids = [rid for ids in assigned.values() for rid in ids]
        assert len(ids) == len(set(ids)) == 5
        assert assigned == mix.assignments(10)
        assert assigned["silent"] == (9,)
        assert assigned["equivocate"] == (8,)
        assert assigned["lazy"] == (7,)
        assert assigned["crash"] == (6, 5)

    def test_byzantine_ids_exclude_crashes(self):
        mix = FaultMix(crash=1, silent=1)
        cluster = ScenarioSpec(n=7, faults=mix).build(0).build()
        assert cluster.byzantine_ids == {6}
        assert mix.crash_schedule(7) == ((5, 0.0),)


class TestPartitionWindow:
    def test_split_resolution(self):
        window = PartitionWindow(start=1.0, end=2.0, split=0.5)
        groups = window.resolve(7)
        assert groups == ((0, 1, 2), (3, 4, 5, 6))

    def test_explicit_groups(self):
        window = PartitionWindow(start=0.0, end=1.0, groups=((0, 1), (2, 3)))
        assert window.resolve(4) == ((0, 1), (2, 3))


class TestSpecLoading:
    def test_mapping_round_trip(self):
        spec = spec_from_mapping(
            {
                "protocol": "diembft",
                "n": 10,
                "seeds": [1, 2],
                "faults": {"crash": 1},
                "partitions": [{"start": 1.0, "end": 2.0}],
            },
            name="demo",
        )
        assert spec.name == "demo"
        assert spec.seeds == (1, 2)
        assert spec.faults.crash == 1
        assert spec.partitions[0].end == 2.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            spec_from_mapping({"protcol": "diembft"})
        with pytest.raises(ValueError, match="unknown fault keys"):
            spec_from_mapping({"faults": {"crsh": 1}})

    def test_json_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"n": 4, "protocol": "diembft"}))
        spec = load_scenario(path)
        assert spec.name == "s"
        assert spec.n == 4


class TestCampaignExpansion:
    def test_cross_product_counts(self):
        base = ScenarioSpec(name="m", n=7, seeds=(1, 2))
        campaign = Campaign(
            base,
            matrix={"protocol": ["diembft", "sft-diembft"], "n": [4, 7, 10]},
        )
        jobs = campaign.expand()
        assert campaign.job_count() == len(jobs) == 2 * 3 * 2
        assert len({job.job_id for job in jobs}) == len(jobs)
        assert jobs[0].job_id == "m/protocol=diembft,n=4,seed=1"
        assert jobs[-1].params == {"protocol": "sft-diembft", "n": 10}

    def test_fault_axis(self):
        base = ScenarioSpec(name="m", n=10)
        campaign = Campaign(base, matrix={"faults.crash": [0, 1, 2]})
        jobs = campaign.expand()
        assert [job.spec.faults.crash for job in jobs] == [0, 1, 2]

    def test_seed_axis_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            Campaign(ScenarioSpec(name="m"), matrix={"seeds": [[1], [2]]})

    def test_bad_axis_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown matrix axis"):
            Campaign(ScenarioSpec(name="m"), matrix={"not_a_field": [1]})

    def test_late_invalid_axis_value_fails_at_construction(self):
        # n=7 is fine, n=3 can't hold the 4-replica fault mix — the
        # second value must fail at load time, not mid-campaign.
        base = ScenarioSpec(name="m", n=7, faults=FaultMix(crash=4))
        with pytest.raises(ValueError, match="value 3"):
            Campaign(base, matrix={"n": [7, 3]})

    def test_cross_axis_invalid_combo_fails_at_expand(self):
        base = ScenarioSpec(name="m", n=7)
        campaign = Campaign(
            base, matrix={"n": [7, 4], "faults.crash": [0, 5]}
        )
        with pytest.raises(ValueError, match="fault mix"):
            campaign.expand()

    def test_no_matrix_expands_seeds_only(self):
        campaign = Campaign(ScenarioSpec(name="m", seeds=(7, 8, 9)))
        assert [job.seed for job in campaign.expand()] == [7, 8, 9]


class TestDigestBaseline:
    BASELINE = {"a/seed=1": "00000000000000aa", "b/seed=1": "00000000000000bb"}

    def test_identical_digests_move_nothing(self):
        assert moved_digests(dict(self.BASELINE), self.BASELINE) == {}

    def test_changed_digest_moves(self):
        now = dict(self.BASELINE, **{"b/seed=1": "00000000000000cc"})
        assert moved_digests(now, self.BASELINE) == {
            "b/seed=1": ("00000000000000bb", "00000000000000cc")
        }

    def test_missing_job_moves(self):
        now = {"a/seed=1": "00000000000000aa"}
        assert moved_digests(now, self.BASELINE) == {
            "b/seed=1": ("00000000000000bb", None)
        }

    def test_extra_job_moves(self):
        now = dict(self.BASELINE, **{"c/seed=1": "00000000000000cc"})
        assert moved_digests(now, self.BASELINE) == {
            "c/seed=1": (None, "00000000000000cc")
        }


class TestValidationGaps:
    """Malformed schedules the fuzz generator's neighbourhood can
    produce must fail loudly at spec-construction time."""

    def test_negative_fault_counts_rejected(self):
        with pytest.raises(ValueError, match="faults.silent"):
            FaultMix(silent=-1)
        with pytest.raises(ValueError, match="faults.crash"):
            FaultMix(crash=-2)

    def test_overfull_fault_mix_rejected(self):
        with pytest.raises(ValueError, match="fault mix"):
            ScenarioSpec(name="x", n=4, faults=FaultMix(silent=3, equivocate=2))

    def test_nan_and_negative_latencies_rejected(self):
        with pytest.raises(ValueError, match="uniform_delay"):
            ScenarioSpec(name="x", uniform_delay=float("nan"))
        with pytest.raises(ValueError, match="jitter"):
            ScenarioSpec(name="x", jitter=-0.1)
        with pytest.raises(ValueError, match="delta"):
            ScenarioSpec(name="x", delta=float("inf"))
        with pytest.raises(ValueError, match="crash_at"):
            FaultMix(crash=1, crash_at=float("nan"))

    def test_bad_f_rejected(self):
        with pytest.raises(ValueError, match="f must be"):
            ScenarioSpec(name="x", n=4, f=-1)
        with pytest.raises(ValueError, match="f must be"):
            ScenarioSpec(name="x", n=4, f=1.5)

    def test_nonpositive_run_knobs_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            ScenarioSpec(name="x", duration=0.0)
        with pytest.raises(ValueError, match="round_timeout"):
            ScenarioSpec(name="x", round_timeout=-1.0)
        with pytest.raises(ValueError, match="n must be"):
            ScenarioSpec(name="x", n=0)
        with pytest.raises(ValueError, match="seeds"):
            ScenarioSpec(name="x", seeds=())

    def test_inverted_partition_window_rejected(self):
        with pytest.raises(ValueError, match="before it starts"):
            PartitionWindow(start=3.0, end=1.0)
        with pytest.raises(ValueError, match="before it starts"):
            PartitionWindow(start=1.0, end=1.0)

    def test_partition_split_bounds(self):
        with pytest.raises(ValueError, match="split"):
            PartitionWindow(start=0.0, end=1.0, split=0.0)
        with pytest.raises(ValueError, match="split"):
            PartitionWindow(start=0.0, end=1.0, split=1.5)

    def test_partition_past_duration_rejected(self):
        with pytest.raises(ValueError, match="past duration"):
            ScenarioSpec(
                name="x",
                duration=5.0,
                partitions=(PartitionWindow(start=6.0, end=8.0),),
            )

    def test_withhold_reach_bounds(self):
        with pytest.raises(ValueError, match="withhold_reach"):
            FaultMix(withhold=1, withhold_reach=1.5)
        with pytest.raises(ValueError, match="withhold_reach"):
            FaultMix(withhold=1, withhold_reach=-0.5)


class TestMarkerLieMix:
    def test_marker_lie_assignment_and_byzantine_ids(self):
        mix = FaultMix(marker_lie=2, crash=1)
        assigned = mix.assignments(10)
        assert assigned["marker_lie"] == (9, 8)
        assert assigned["crash"] == (7,)
        cluster = ScenarioSpec(n=10, faults=mix).build(0).build()
        assert cluster.byzantine_ids == {9, 8}
        assert mix.byzantine_total() == 3

    def test_lazy_excluded_from_byzantine_total(self):
        mix = FaultMix(lazy=2, silent=1)
        assert mix.byzantine_total() == 1
        assert mix.non_voting() == 1

    def test_marker_lie_override_applies(self):
        spec = ScenarioSpec(name="x", n=7, faults=FaultMix(marker_lie=1))
        cluster = spec.build().build()
        assert type(cluster.replicas[6]).__name__.startswith("MarkerLiar")


class TestSpecSerialization:
    def test_to_mapping_omits_defaults(self):
        from repro.experiments import spec_to_mapping

        mapping = spec_to_mapping(ScenarioSpec(name="x"))
        assert mapping == {"name": "x"}

    def test_round_trip_with_everything(self):
        from repro.experiments import spec_from_mapping, spec_to_mapping

        spec = ScenarioSpec(
            name="full",
            protocol="sft-streamlet",
            n=10,
            gst=1.5,
            pre_gst_delay=0.3,
            naive_accounting=True,
            duration=9.0,
            seeds=(3, 4),
            faults=FaultMix(silent=1, crash=1, crash_at=2.0, marker_lie=1),
            partitions=(
                PartitionWindow(start=1.0, end=2.0, split=0.3),
                PartitionWindow(start=3.0, end=4.0, groups=((0, 1), (2, 3))),
            ),
        )
        assert spec_from_mapping(spec_to_mapping(spec)) == spec

    def test_save_and_load_scenario(self, tmp_path):
        from repro.experiments import load_scenario, save_scenario

        spec = ScenarioSpec(
            name="saved", n=7, script="appendix_c", naive_accounting=True
        )
        path = tmp_path / "saved.json"
        save_scenario(spec, path)
        assert load_scenario(path) == spec
