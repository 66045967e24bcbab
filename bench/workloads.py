"""The benchmark's frozen workload definitions.

Every spec here is a literal.  Nothing is imported from ``repro.perf``
or ``scenarios/``, so refactoring those cannot silently move the
yardstick.  A change to this file is a change to the benchmark and
re-bases every number taken with it.
"""

from __future__ import annotations

from repro.experiments.spec import FaultMix, PartitionWindow, ScenarioSpec

#: TCP tier: seconds of load before the measured window opens (JIT-free
#: Python still has lazy imports, connection set-up and an empty
#: pipeline to get past) and seconds after it closes in which in-window
#: requests may still be acknowledged before they count as failed.
RT_WARMUP_S = 2.0
RT_DRAIN_S = 1.0
#: Outstanding requests of the closed-loop client.
RT_WINDOW = 256
#: Client payload size (KV command bytes).
PAYLOAD_BYTES = 64


def rt_spec(n: int, seed: int) -> ScenarioSpec:
    """sft-diembft on localhost TCP, endorsement bookkeeping on."""
    return ScenarioSpec(
        name=f"bench_rt{n}",
        protocol="sft-diembft",
        n=n,
        observers="all",
        round_timeout=2.0,
        batch_size=256,
        # Only the replicas' orphan backstop reads this on the TCP tier;
        # the benchmark stops the cluster itself.
        duration=120.0,
        seeds=(seed,),
    )


def _sim16_tx(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="bench_sim16_tx",
        protocol="sft-diembft",
        n=16,
        verify_signatures=True,
        workload_rate=2000,
        pipelined_proposals=True,
        sync_enabled=True,
        uniform_delay=0.010,
        jitter=0.002,
        duration=3.0,
        seeds=(seed,),
    )


def _sim16_faults(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="bench_sim16_faults",
        protocol="sft-diembft",
        n=16,
        workload_rate=500,
        pipelined_proposals=True,
        checkpoint_interval=8,
        duplicate_rate=0.05,
        duration=8.0,
        seeds=(seed,),
        faults=FaultMix(
            crash=1, crash_at=1.0,
            equivocate=1,
            lazy=2, lazy_delay=0.1,
            recover=1, recover_at=2.5, downtime=1.0,
        ),
        partitions=(PartitionWindow(start=5.0, end=7.0),),
    )


def _sim16_streamlet(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="bench_sim16_streamlet",
        protocol="sft-streamlet",
        n=16,
        workload_rate=2000,
        duration=1.0,
        seeds=(seed,),
    )


SIM_SPECS = {
    "sim16_tx": _sim16_tx,
    "sim16_faults": _sim16_faults,
    "sim16_streamlet": _sim16_streamlet,
}

#: name -> (tier, parameters).  ``why`` lives in BENCHMARK.json and the
#: README; this table is what run.py dispatches on.
WORKLOADS = {
    "rt4_open_400": ("rt", {"n": 4, "rate": 400.0}),
    "rt4_open_800": ("rt", {"n": 4, "rate": 800.0}),
    "rt4_closed_w256": ("rt", {"n": 4, "rate": None}),
    "rt7_closed_w256": ("rt", {"n": 7, "rate": None}),
    "sim16_tx": ("sim", {}),
    "sim16_faults": ("sim", {}),
    "sim16_streamlet": ("sim", {}),
}
