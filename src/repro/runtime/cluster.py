"""A simulated cluster of replicas plus fault-injection hooks.

:func:`build_replica` is the one place a replica is assembled, on both
tiers: the simulator's :class:`Cluster` (at build and at every
restart) and the TCP tier's per-process host call it with their own
transport and clock.  :data:`PROTOCOL_CLASSES` is the one place a
protocol name is spelled.
"""

from __future__ import annotations

from repro.crypto.registry import KeyRegistry
from repro.net.network import Network
from repro.net.sim import SimClock, SimTransport
from repro.net.simulator import Simulator
from repro.protocols.base import ReplicaContext
from repro.protocols.diembft.replica import DiemBFTReplica
from repro.protocols.fbft.replica import FBFTDiemBFTReplica
from repro.protocols.sft_diembft.replica import SFTDiemBFTReplica
from repro.protocols.sft_streamlet.replica import SFTStreamletReplica
from repro.protocols.streamlet.replica import StreamletReplica

#: Protocol name (``ScenarioSpec.protocol``) -> its honest replica class.
PROTOCOL_CLASSES = {
    "diembft": DiemBFTReplica,
    "sft-diembft": SFTDiemBFTReplica,
    "fbft": FBFTDiemBFTReplica,
    "streamlet": StreamletReplica,
    "sft-streamlet": SFTStreamletReplica,
}


def build_replica(
    spec,
    replica_id: int,
    transport,
    clock,
    registry: KeyRegistry,
    *,
    replica_class=None,
    trace=None,
    durable=None,
):
    """One replica of ``spec`` bound to ``transport`` and ``clock``.

    ``replica_class`` defaults to the spec's protocol class; an
    override (an adversarial behaviour from :mod:`repro.adversary`)
    takes the same ``(config, context)`` arguments.  ``trace`` is the
    shared span log and ``durable`` the replica's WAL record, both
    ``None`` when off.
    """
    if replica_class is None:
        replica_class = PROTOCOL_CLASSES[spec.protocol]
    context = ReplicaContext(
        replica_id, transport, clock, registry, trace=trace, durable=durable
    )
    return replica_class(spec.replica_config(replica_id), context)


class Cluster:
    """Replicas, network, and simulator wired together.

    Made only by :meth:`~repro.experiments.spec.ScenarioSpec.build`,
    whose arguments it takes.  ``config`` *is* that spec — read, never
    written.  The replica overrides hold for the cluster's whole life:
    a restarted replica is rebuilt with the class it had.
    """

    def __init__(
        self,
        spec,
        seed: int | None,
        replica_overrides: dict | None,
        crash_schedule: tuple | None,
    ):
        self.config = spec
        self.seed = spec.seeds[0] if seed is None else seed
        self.replica_overrides = (
            spec.faults.replica_overrides(
                spec.n, PROTOCOL_CLASSES[spec.protocol]
            )
            if replica_overrides is None
            else dict(replica_overrides)
        )
        self.byzantine_ids = frozenset(self.replica_overrides)
        self.crash_schedule = (
            spec.faults.crash_schedule(spec.n)
            if crash_schedule is None
            else tuple(crash_schedule)
        )
        # (replica_id, crash_time, restart_time) triples; non-empty
        # turns on the durable WAL disk and the restart machinery.
        self.recovery_schedule = spec.faults.recovery_schedule(spec.n)
        self.simulator = Simulator()
        self.network = Network(
            self.simulator, spec.build_topology(), spec.network_config(self.seed)
        )
        self.registry = KeyRegistry(spec.n)
        # The replica-facing seam: replicas only ever see these two
        # adapters, never the Network/Simulator pair directly.
        self.transport = SimTransport(self.network)
        self.clock = SimClock(self.simulator)
        self.replicas: list = []
        self.workload = None  # KVWorkload when workload_rate > 0
        self.trace = None  # shared TraceLog when trace_level != "off"
        # Crash-recovery: the simulated stable storage (DurableDisk)
        # when the spec's faults yield a recovery schedule, else None
        # (the default — zero WAL work, byte-identical replay).
        self.durable = None
        self.restarts = 0
        self.amnesia_restarts = 0
        self._built = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def build(self) -> "Cluster":
        """Instantiate and register every replica (idempotent)."""
        if self._built:
            return self
        if self.config.trace_level != "off":
            from repro.obs import TraceLog

            self.trace = TraceLog()
        if self.recovery_schedule:
            from repro.types.wal import DurableDisk

            self.durable = DurableDisk()
        for replica_id in range(self.config.n):
            replica = build_replica(
                self.config, replica_id, self.transport, self.clock,
                self.registry,
                replica_class=self.replica_overrides.get(replica_id),
                trace=self.trace,
                durable=(
                    self.durable.state_for(replica_id)
                    if self.durable is not None
                    else None
                ),
            )
            self.replicas.append(replica)
            self.network.register(replica_id, replica)
        for window in self.config.partitions:
            self.network.add_partition(
                window.resolve(self.config.n), window.start, window.end
            )
        if self.config.workload_rate > 0:
            from repro.runtime.client import KVWorkload

            self.workload = KVWorkload(
                self,
                rate=self.config.workload_rate,
                seed=self.seed,
            )
        self._built = True
        return self

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, duration: float | None = None) -> "Cluster":
        """Start every replica at t=0 and run to ``duration`` seconds."""
        if not self._built:
            self.build()
        horizon = duration if duration is not None else self.config.duration
        for replica in self.replicas:
            self.simulator.schedule_at(self.simulator.now, replica.start)
        if self.workload is not None:
            self.workload.start()
        for replica_id, crash_time in self.crash_schedule:
            self.simulator.schedule_at(
                crash_time, self.replicas[replica_id].crash
            )
        for replica_id, crash_time, restart_time in self.recovery_schedule:
            # Indirection through self.replicas: restart replaces the
            # instance, so later events must not capture it eagerly.
            self.simulator.schedule_at(
                crash_time, self._crash_current, replica_id
            )
            self.simulator.schedule_at(
                restart_time, self.restart_replica, replica_id
            )
        self.simulator.run_until(horizon)
        return self

    # ------------------------------------------------------------------
    # crash recovery
    # ------------------------------------------------------------------

    def _crash_current(self, replica_id: int) -> None:
        self.replicas[replica_id].crash()

    def restart_replica(self, replica_id: int):
        """Rebuild a crashed replica in place and rejoin it.

        The replacement instance starts from *empty volatile state* —
        fresh block store, fresh vote buckets, fresh pacemaker — and
        recovers exactly what the WAL holds (unless the replica class
        opts out via ``wal_restore = False``: the scripted amnesia
        differential).  It then rejoins through the ordinary block-sync
        / snapshot path rather than by replaying history.
        """
        if self.durable is None:
            raise RuntimeError(
                "restart_replica needs a recovery schedule (durable disk)"
            )
        replica_class = self.replica_overrides.get(
            replica_id, PROTOCOL_CLASSES[self.config.protocol]
        )
        restores = getattr(replica_class, "wal_restore", True)
        replica = build_replica(
            self.config, replica_id, self.transport, self.clock,
            self.registry,
            replica_class=replica_class,
            trace=self.trace,
            # An amnesiac lost the disk: its rebirth neither reads nor
            # writes the WAL, so it behaves exactly like a pre-WAL node.
            durable=(
                self.durable.state_for(replica_id) if restores else None
            ),
        )
        self.replicas[replica_id] = replica
        self.network.register(replica_id, replica)
        if self.workload is not None:
            self.workload.attach(replica)
        if restores:
            state = self.durable.peek(replica_id)
            if state is not None:
                replica.restore_from_wal(state)
            self.restarts += 1
        else:
            self.amnesia_restarts += 1
        if replica.tracer is not None:
            replica.tracer.emit(
                self.simulator.now, "restart",
                detail="wal" if restores else "amnesia",
            )
        replica.start()
        replica.rejoin_after_restart()
        return replica

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def observer_replicas(self, observers=None) -> list:
        """Replicas in the observer role; ``observers`` narrows the
        view to explicit ids (an analysis choice, e.g. Figure 7b's
        region-A/B series) without touching the spec."""
        ids = set(self.config.observer_ids() if observers is None else observers)
        return [replica for replica in self.replicas if replica.replica_id in ids]

    def honest_replicas(self) -> list:
        return [replica for replica in self.replicas if not replica.crashed]

    def correct_replicas(self) -> list:
        """Replicas that are neither crashed nor behaviour-overridden."""
        return [
            replica
            for replica in self.replicas
            if not replica.crashed and replica.replica_id not in self.byzantine_ids
        ]

    def message_stats(self) -> dict:
        return self.network.stats()
