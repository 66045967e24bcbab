"""Fault injection: crash, silent, equivocating, and withholding replicas.

Behaviours are class factories over the honest replica classes, so a
Byzantine SFT-DiemBFT replica reuses all of the honest plumbing and
only overrides the rule it violates.  Adversarial code only ever signs
with its own key (the :class:`~repro.protocols.base.ReplicaContext`
hands it nothing else), matching the simulation's unforgeability
assumption.

Crash faults are built into the runtime (``FaultMix.crash``, or
``ScenarioSpec.build``'s ``crash_schedule`` keyword for explicit ids).
"""

from repro.adversary.behaviors import (
    BEHAVIOR_FACTORIES,
    make_equivocating_leader,
    make_lazy_voter,
    make_silent,
    make_withholding_leader,
)
from repro.adversary.scripted import AppendixCScenario

__all__ = [
    "BEHAVIOR_FACTORIES",
    "make_silent",
    "make_equivocating_leader",
    "make_withholding_leader",
    "make_lazy_voter",
    "AppendixCScenario",
]
