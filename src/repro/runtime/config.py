"""The single factory path from a scenario to a runnable cluster.

A :class:`~repro.experiments.spec.ScenarioSpec` is the only description
of a run — protocol, replica count, geo topology, network behaviour,
protocol knobs, fault mix — and :func:`build_cluster` turns one spec
plus one seed into a ready-to-run
:class:`~repro.runtime.cluster.Cluster`.
"""

from __future__ import annotations

from repro.net.network import Network
from repro.net.simulator import Simulator

PROTOCOLS = ("diembft", "sft-diembft", "fbft", "streamlet", "sft-streamlet")


def build_cluster(
    spec,
    seed: int | None = None,
    replica_overrides: dict | None = None,
    crash_schedule: tuple | None = None,
):
    """Construct a :class:`~repro.runtime.cluster.Cluster` for one seed.

    This is the single factory path: every runnable cluster — honest,
    Byzantine, partitioned, recovering — comes through here, whether
    the caller is a test, an example, the CLI, or the campaign engine.
    ``seed`` defaults to the spec's first.  The two keywords say what a
    fault mix cannot: ``replica_overrides`` maps explicit replica ids to
    behaviour classes and ``crash_schedule`` lists explicit
    ``(replica_id, time)`` crashes; left ``None`` they resolve from
    ``spec.faults`` (top ids first), as the recovery and partition
    schedules always do.
    """
    from repro.crypto.registry import KeyRegistry
    from repro.runtime.cluster import Cluster

    if seed is None:
        seed = spec.seeds[0]
    if replica_overrides is None:
        replica_overrides = spec.replica_overrides()
    if crash_schedule is None:
        crash_schedule = spec.faults.crash_schedule(spec.n)
    simulator = Simulator()
    topology = spec.build_topology()
    network = Network(simulator, topology, spec.network_config(seed))
    return Cluster(
        config=spec,
        seed=seed,
        simulator=simulator,
        topology=topology,
        network=network,
        registry=KeyRegistry(spec.n),
        replica_overrides=replica_overrides,
        crash_schedule=crash_schedule,
    )
