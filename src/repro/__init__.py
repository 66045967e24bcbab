"""repro — Strengthened Fault Tolerance in BFT Replication.

A from-scratch Python reproduction of *"Strengthened Fault Tolerance
in Byzantine Fault Tolerant Replication"* (Xiang, Malkhi, Nayak, Ren —
ICDCS 2021, arXiv:2101.03715): chain-based BFT SMR protocols whose
committed blocks gain resilience beyond ``f`` — up to ``2f`` — as the
chain extends, at linear message complexity.

Quick start::

    from repro import ScenarioSpec, strong_latency_series

    spec = ScenarioSpec(
        protocol="sft-diembft", n=31, topology="symmetric", duration=30.0
    )
    cluster = spec.build().run()
    for point in strong_latency_series(cluster, ratios=(1.0, 1.5, 2.0)):
        print(point.ratio, point.mean_latency)

See ``examples/`` for runnable scenarios and ``benchmarks/`` for the
tests regenerating each figure of the paper.
"""

from repro.core import (
    CommitTracker,
    EndorsementTracker,
    IntervalSet,
    StrengthTimeline,
    VotingHistory,
    level_for_ratio,
    max_strength,
    ratio_grid,
)
from repro.experiments import (
    Campaign,
    CampaignRunner,
    FaultMix,
    ScenarioSpec,
    load_scenario,
    run_campaign,
)
from repro.lightclient import LightClient, StrongCommitProof, build_proof
from repro.net import (
    AsymmetricTopology,
    Network,
    NetworkConfig,
    Simulator,
    SymmetricTopology,
    UniformTopology,
)
from repro.protocols.base import ReplicaConfig
from repro.protocols.diembft import DiemBFTReplica
from repro.protocols.fbft import FBFTDiemBFTReplica
from repro.protocols.sft_diembft import SFTDiemBFTReplica
from repro.protocols.sft_streamlet import SFTStreamletReplica
from repro.protocols.streamlet import StreamletConfig, StreamletReplica
from repro.runtime import (
    Cluster,
    LatencyReport,
    regular_commit_latency,
    strong_commit_latency,
    strong_latency_series,
    throughput_txps,
)
from repro.types import (
    Block,
    BlockStore,
    QuorumCertificate,
    StrongVote,
    TimeoutCertificate,
    Transaction,
    Vote,
)

__version__ = "1.0.0"

__all__ = [
    # core
    "IntervalSet",
    "VotingHistory",
    "EndorsementTracker",
    "CommitTracker",
    "StrengthTimeline",
    "level_for_ratio",
    "max_strength",
    "ratio_grid",
    # types
    "Block",
    "BlockStore",
    "QuorumCertificate",
    "TimeoutCertificate",
    "Vote",
    "StrongVote",
    "Transaction",
    # net
    "Simulator",
    "Network",
    "NetworkConfig",
    "UniformTopology",
    "SymmetricTopology",
    "AsymmetricTopology",
    # protocols
    "ReplicaConfig",
    "DiemBFTReplica",
    "SFTDiemBFTReplica",
    "FBFTDiemBFTReplica",
    "StreamletReplica",
    "StreamletConfig",
    "SFTStreamletReplica",
    # experiments
    "ScenarioSpec",
    "FaultMix",
    "Campaign",
    "CampaignRunner",
    "run_campaign",
    "load_scenario",
    # runtime
    "Cluster",
    "LatencyReport",
    "regular_commit_latency",
    "strong_commit_latency",
    "strong_latency_series",
    "throughput_txps",
    # light client
    "LightClient",
    "StrongCommitProof",
    "build_proof",
    "__version__",
]
