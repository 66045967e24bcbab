"""Property: crash–recovery with a durable WAL never double-votes.

Hypothesis samples crash/restart schedules — how many replicas go
down, when, and for how long — and for each one asserts the safety
core of the recovery subsystem:

* the append-only WAL vote log holds at most one block per round for
  every replica (``double_votes(state)`` is empty — the
  restart guard consulted it before re-voting);
* the committed chains of all replicas stay consistent (one block per
  height, single-chain per replica);
* every scheduled restart actually happened and reloaded its record.

The schedules keep ``n = 4`` and a short duration so the whole
property stays tier-1 fast.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import check_prefix_consistency
from repro.experiments import FaultMix, ScenarioSpec
from tests.conftest import double_votes

PROTOCOLS = ("diembft", "sft-diembft", "streamlet", "sft-streamlet")

schedules = st.tuples(
    st.sampled_from(PROTOCOLS),
    st.integers(min_value=1, max_value=3),  # replicas that crash
    st.floats(min_value=0.3, max_value=2.5),  # crash time
    st.floats(min_value=0.2, max_value=1.5),  # downtime
    st.integers(min_value=0, max_value=2**31 - 1),  # run seed
)


def test_simultaneous_streamlet_restarts_keep_one_chain():
    # Pinned falsifying example from the property below: three of four
    # Streamlet replicas restarting at once.  Their WALs stopped every
    # double vote, yet the reborn trio — whose volatile stores knew
    # only genesis — certified a *second* chain from scratch and
    # committed conflicting blocks at height 1.  The fix persists the
    # longest certified chain height as a durable voting floor
    # (``DurableState.record_certified_height``), Streamlet's analog
    # of DiemBFT's persisted ``r_lock``.
    _run_schedule(("streamlet", 3, 2.0, 1.0, 0))


@settings(max_examples=12, deadline=None)
@given(schedules)
def test_wal_restored_replicas_never_double_vote(schedule):
    _run_schedule(schedule)


def _run_schedule(schedule):
    protocol, count, recover_at, downtime, seed = schedule
    spec = ScenarioSpec(
        name="crash-recovery-prop",
        protocol=protocol,
        n=4,
        duration=5.0,
        seeds=(seed,),
        faults=FaultMix(
            recover=count,
            recover_at=round(recover_at, 3),
            downtime=round(downtime, 3),
        ),
    )
    cluster = spec.build(seed)
    cluster.run()
    assert cluster.restarts == count
    for replica_id in range(spec.n):
        state = cluster.durable.peek(replica_id)
        if state is None:
            continue
        assert double_votes(state) == [], (
            f"{protocol} replica {replica_id} double-voted: "
            f"{double_votes(state)} (schedule {schedule})"
        )
    restarted = set(range(spec.n - count, spec.n))
    for replica_id in restarted:
        assert cluster.durable.state_for(replica_id).restores == 1
    assert not check_prefix_consistency(
        [replica for replica in cluster.replicas if not replica.crashed]
    )
