"""Simulator-tier bindings of the replica-facing Transport/Clock seam.

:class:`SimTransport` and :class:`SimClock` adapt the deterministic
in-process layer (:class:`repro.net.network.Network` and
:class:`repro.net.simulator.Simulator`) to the structural interfaces
declared in :mod:`repro.protocols.base`.  They are pure pass-throughs:
every call delegates to the exact method the old ``ReplicaContext``
called directly, so committed baselines replay byte-identically.

The wall-clock counterparts live in :mod:`repro.rt_net.transport`.
"""

from __future__ import annotations

from repro.net.network import Network
from repro.net.simulator import Simulator


class SimTransport:
    """Transport backed by the deterministic in-process :class:`Network`.

    The three interface methods are bound straight to the underlying
    :class:`Network` methods at construction time, so the adapter adds
    zero frames to the per-message hot path.
    """

    __slots__ = ("network", "send", "multicast", "unregister")

    def __init__(self, network: Network) -> None:
        self.network = network
        self.send = network.send
        self.multicast = network.multicast
        self.unregister = network.unregister


class SimClock:
    """Clock backed by the deterministic event-loop :class:`Simulator`."""

    __slots__ = ("simulator", "set_timer")

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.set_timer = simulator.schedule_in

    @property
    def now(self) -> float:
        return self.simulator.now

    def cancel_timer(self, handle) -> None:
        handle.cancel()
