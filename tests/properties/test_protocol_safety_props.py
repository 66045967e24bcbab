"""Randomized fault-injection runs: safety must always hold.

Each example draws a fault configuration (crashes, silent replicas,
equivocating or withholding leaders, a partition window) and runs a
short SFT-DiemBFT cluster.  BFT SMR safety (no conflicting commits)
and the SFT strong-safety condition (Definition 1) are asserted over
the honest replicas.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import (
    make_equivocating_leader,
    make_silent,
    make_withholding_leader,
)
from repro.analysis.invariants import (
    check_definition_1,
    check_prefix_consistency,
)
from repro.protocols.sft_diembft import SFTDiemBFTReplica
from tests.conftest import small_experiment

BEHAVIOURS = (None, "silent", "equivocate", "withhold")


@st.composite
def fault_plans(draw):
    # Up to f = 2 faulty replicas out of n = 7.
    faulty_count = draw(st.integers(0, 2))
    faulty = draw(
        st.lists(
            st.integers(0, 6),
            min_size=faulty_count,
            max_size=faulty_count,
            unique=True,
        )
    )
    behaviours = [
        draw(st.sampled_from(["crash", "silent", "equivocate", "withhold"]))
        for _ in faulty
    ]
    partition = draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    return tuple(zip(faulty, behaviours)), partition, seed


@given(fault_plans())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_safety_under_random_faults(plan):
    faults, partition, seed = plan
    crash_schedule = tuple(
        (replica_id, 1.0)
        for replica_id, behaviour in faults
        if behaviour == "crash"
    )
    config = small_experiment(duration=6.0, seed=seed, round_timeout=0.4)
    overrides = {}
    for replica_id, behaviour in faults:
        if behaviour == "silent":
            overrides[replica_id] = make_silent(SFTDiemBFTReplica)
        elif behaviour == "equivocate":
            overrides[replica_id] = make_equivocating_leader(SFTDiemBFTReplica)
        elif behaviour == "withhold":
            overrides[replica_id] = make_withholding_leader(
                SFTDiemBFTReplica, reach=0.5
            )
    cluster = config.build(
        replica_overrides=overrides, crash_schedule=crash_schedule
    ).build()
    if partition:
        cluster.network.add_partition(
            [(0, 1, 2, 3), (4, 5, 6)], start=1.0, end=3.0
        )
    cluster.run()

    byzantine_ids = {replica_id for replica_id, _ in faults}
    honest = [
        replica
        for replica in cluster.replicas
        if replica.replica_id not in byzantine_ids and not replica.crashed
    ]
    # BFT SMR safety: t <= f always holds here.
    assert not check_prefix_consistency(honest)
    # SFT safety (Definition 1) at the actual fault count.
    violations = check_definition_1(honest, len(byzantine_ids))
    assert violations == []


@given(st.integers(0, 2**16))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fault_free_runs_always_reach_2f(seed):
    config = small_experiment(duration=6.0, seed=seed)
    cluster = config.build().run()
    assert not check_prefix_consistency(cluster.replicas)
    f = cluster.config.resolved_f()
    best = max(
        (
            timeline.current
            for replica in cluster.replicas
            for _, timeline in replica.commit_tracker.timelines()
        ),
        default=-1,
    )
    assert best == 2 * f
