"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the portable description of one experiment:
protocol, cluster size, fault mix, topology preset, latency model, and
seed list.  Specs are plain data — loadable from TOML or JSON, hashable
into job ids, and picklable across process boundaries — and they
resolve into runnable clusters through the single
:func:`~repro.runtime.config.build_cluster` factory path.

The fault mix assigns behaviours to concrete replica ids
deterministically (from the highest id downwards, Byzantine behaviours
first, then crashes), so the same spec always produces the same
cluster.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from pathlib import Path

from repro.adversary.behaviors import BEHAVIOR_FACTORIES
from repro.net.network import NetworkConfig
from repro.net.topology import (
    AB_DELAY,
    AsymmetricTopology,
    RegionTopology,
    SymmetricTopology,
    Topology,
    UniformTopology,
)
from repro.protocols.base import ReplicaConfig
from repro.protocols.streamlet.replica import StreamletConfig
from repro.runtime.config import PROTOCOLS, build_cluster

#: Scripted (non-cluster) scenario kinds the fuzz engine knows how to
#: run.  ``"appendix_c"`` replays the paper's Appendix C construction
#: (:class:`~repro.adversary.scripted.AppendixCScenario`) at ``f``
#: taken from the spec.
SCRIPTS = ("", "appendix_c")


def _require_count(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def _require_finite(name: str, value, minimum: float = 0.0) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum:g}, got {value!r}")


@dataclass(slots=True)
class FaultMix:
    """How many replicas misbehave, and how.

    ``crash`` replicas halt at ``crash_at``; ``silent`` replicas never
    vote; ``equivocate`` leaders propose conflicting blocks;
    ``withhold`` leaders propose to only a ``withhold_reach`` share of
    the network; ``lazy`` voters delay votes by ``lazy_delay`` seconds;
    ``marker_lie`` replicas vote honestly but always report marker 0;
    ``sync_withhold`` replicas participate honestly but never answer
    block-sync requests (exercises the catch-up retry/peer-rotation
    path; a no-op when ``sync_enabled`` is off).

    Crash-*recovery* faults (all default off): ``recover`` replicas
    crash at ``recover_at``, lose every piece of volatile state, and
    restart ``downtime`` seconds later from their durable WAL record,
    rejoining via block-sync / snapshot transfer.  ``amnesia`` replicas
    follow the same schedule but restart *without* the WAL — the
    scripted differential that demonstrably double-votes, which the
    invariant oracle must catch.
    """

    crash: int = 0
    crash_at: float = 0.0
    silent: int = 0
    equivocate: int = 0
    withhold: int = 0
    withhold_reach: float = 0.5
    lazy: int = 0
    lazy_delay: float = 0.5
    marker_lie: int = 0
    sync_withhold: int = 0
    recover: int = 0
    recover_at: float = 0.0
    downtime: float = 1.0
    amnesia: int = 0

    def __post_init__(self):
        for name in ("crash", "silent", "equivocate", "withhold", "lazy",
                     "marker_lie", "sync_withhold", "recover", "amnesia"):
            _require_count(f"faults.{name}", getattr(self, name))
        _require_finite("faults.crash_at", self.crash_at)
        _require_finite("faults.lazy_delay", self.lazy_delay)
        _require_finite("faults.withhold_reach", self.withhold_reach)
        _require_finite("faults.recover_at", self.recover_at)
        _require_finite("faults.downtime", self.downtime)
        if self.withhold_reach > 1.0:
            raise ValueError(
                f"faults.withhold_reach must be <= 1, got {self.withhold_reach!r}"
            )
        if (self.recover or self.amnesia) and self.downtime <= 0:
            raise ValueError(
                f"faults.downtime must be positive, got {self.downtime!r}"
            )

    def total(self) -> int:
        return (
            self.crash + self.silent + self.equivocate + self.withhold
            + self.lazy + self.marker_lie + self.sync_withhold
            + self.recover + self.amnesia
        )

    def non_voting(self) -> int:
        """Faults that permanently remove voters (liveness accounting)."""
        return self.crash + self.silent

    def byzantine_total(self) -> int:
        """Actual faults ``t`` for Definition 1 (everything but lazy).

        Lazy voters are the paper's honest-but-slow stragglers
        (Section 4.1); every other behaviour — including a crash, which
        Byzantine behaviour subsumes — counts against ``t``.
        """
        return self.total() - self.lazy

    def assignments(self, n: int) -> dict[str, tuple[int, ...]]:
        """Deterministic behaviour → replica-id mapping (top ids first)."""
        if self.total() > n:
            raise ValueError(
                f"fault mix assigns {self.total()} replicas but n={n}"
            )
        next_id = n - 1
        assigned: dict[str, tuple[int, ...]] = {}
        for name, count in (
            ("silent", self.silent),
            ("equivocate", self.equivocate),
            ("withhold", self.withhold),
            ("lazy", self.lazy),
            ("marker_lie", self.marker_lie),
            ("sync_withhold", self.sync_withhold),
            ("crash", self.crash),
            # Recovery faults come last so pre-existing specs keep the
            # exact id assignments they always had.
            ("recover", self.recover),
            ("amnesia", self.amnesia),
        ):
            ids = tuple(range(next_id, next_id - count, -1))
            next_id -= count
            assigned[name] = ids
        return assigned

    def behavior_kwargs(self, behavior: str) -> dict:
        """Extra knobs each behaviour factory takes, from this mix."""
        if behavior == "withhold":
            return {"reach": self.withhold_reach}
        if behavior == "lazy":
            return {"delay": self.lazy_delay}
        return {}

    def replica_overrides(self, n: int, base_class) -> dict[int, type]:
        assigned = self.assignments(n)
        overrides: dict[int, type] = {}
        for behavior, factory in BEHAVIOR_FACTORIES.items():
            kwargs = self.behavior_kwargs(behavior)
            for replica_id in assigned[behavior]:
                overrides[replica_id] = factory(base_class, **kwargs)
        return overrides

    def crash_schedule(self, n: int) -> tuple:
        return tuple(
            (replica_id, self.crash_at)
            for replica_id in self.assignments(n)["crash"]
        )

    def recovery_schedule(self, n: int) -> tuple:
        """``(replica_id, crash_time, restart_time)`` triples for every
        crash-recovery fault (``recover`` and ``amnesia`` alike — the
        amnesia differential runs the identical schedule, it just skips
        the WAL reload on restart)."""
        assigned = self.assignments(n)
        return tuple(
            (replica_id, self.recover_at, self.recover_at + self.downtime)
            for name in ("recover", "amnesia")
            for replica_id in assigned[name]
        )


@dataclass(slots=True)
class PartitionWindow:
    """One temporary partition: ``[start, end)``, healed afterwards.

    Either ``groups`` gives explicit replica-id groups, or ``split``
    divides ids into the first ``split`` fraction versus the rest.
    """

    start: float
    end: float
    groups: tuple = ()
    split: float = 0.5

    def __post_init__(self):
        _require_finite("partition start", self.start)
        _require_finite("partition end", self.end)
        if self.end <= self.start:
            raise ValueError(
                f"partition window ends at {self.end!r} before it starts "
                f"at {self.start!r}"
            )
        if not self.groups:
            _require_finite("partition split", self.split)
            if not 0.0 < self.split < 1.0:
                raise ValueError(
                    f"partition split must be in (0, 1), got {self.split!r}"
                )

    def resolve(self, n: int) -> tuple:
        if self.groups:
            return tuple(tuple(group) for group in self.groups)
        cut = max(1, min(n - 1, int(n * self.split)))
        return (tuple(range(cut)), tuple(range(cut, n)))


@dataclass(slots=True)
class ScenarioSpec:
    """One named, declarative experiment scenario — the only
    description of a run; every layer reads its knobs from here.

    ``topology`` is ``"uniform"``, ``"symmetric"``, ``"asymmetric"``
    (Figure 6), or ``"regions"`` (custom ``region_sizes`` with a flat
    cross-region delay of ``delta``); ``delta`` is the inter-region
    delay δ.
    """

    name: str = "scenario"
    protocol: str = "sft-diembft"
    n: int = 7
    f: int | None = None
    # Topology preset + latency model.
    topology: str = "uniform"
    delta: float = 0.100
    region_sizes: tuple = ()
    intra_delay: float = 0.001
    uniform_delay: float = 0.010
    jitter: float = 0.002
    bandwidth_bytes_per_sec: float = 0.0
    gst: float = 0.0
    pre_gst_delay: float = 0.0
    # At-least-once delivery faults (both default off ⇒ byte-identical
    # replay): each unicast is duplicated with probability
    # ``duplicate_rate``, and ``reorder_window`` seconds of extra
    # per-message delay jitter lets later sends overtake earlier ones.
    duplicate_rate: float = 0.0
    reorder_window: float = 0.0
    # Protocol knobs.
    round_timeout: float = 0.5
    timeout_multiplier: float = 1.5
    qc_extra_wait: float = 0.0
    generalized_intervals: bool = False
    interval_window: int | None = None
    naive_accounting: bool = False
    verify_signatures: bool = True
    block_batch_count: int = 10
    block_batch_bytes: int = 1_000
    streamlet_round_duration: float | None = None
    # Block-sync / catch-up subprotocol; off replays the pre-sync
    # behaviour byte-for-byte (determinism differentials, corpus
    # starvation stories).
    sync_enabled: bool = True
    # Throughput program (all default-off, same byte-identical-replay
    # discipline): a real-transaction KV workload at ``workload_rate``
    # txs/sec feeding per-replica mempools, leaders batching up to
    # ``batch_size`` transactions per block, and linear vote
    # collection.  ``pipelined_proposals`` changes nothing that commits
    # in any measured run (leaders already skip what their parent's
    # chain carries); it stays because the frozen benchmark names it.
    workload_rate: float = 0.0
    batch_size: int = 256
    pipelined_proposals: bool = False
    linear_votes: bool = False
    # Checkpoint subprotocol: sign state digests every this-many
    # commits; 2f+1 matching digests truncate history below the stable
    # checkpoint and let far-behind replicas join via snapshot
    # transfer.  0 (default) replays pre-checkpoint runs byte-for-byte.
    checkpoint_interval: int = 0
    # Observability (repro.obs): ``trace_level`` turns the structured
    # lifecycle span log on ("spans" adds the block span chain, "full"
    # also records every message delivery); off replays pre-tracing
    # runs byte-for-byte.  ``flight_recorder`` keeps the cheap per-
    # replica crash ring (memory only, never in metrics) that invariant
    # violations dump as JSON artifacts.
    trace_level: str = "off"
    flight_recorder: bool = True
    # Run control.
    duration: float = 10.0
    seeds: tuple = (1,)
    # Which replicas track endorsements (Section 5): "all", an int
    # stride, or an explicit id list — ``[]`` disables the observer
    # role everywhere.  Observer leaders embed strong-commit events
    # into block.commit_log, which is hashed into the block id and
    # depends on *when* strong QCs accrued; scenarios meant to commit
    # identical chains across transport tiers (``repro rt diff``) must
    # therefore set ``observers = []``.
    observers: object = "all"
    # Fault injection.
    faults: FaultMix = field(default_factory=FaultMix)
    partitions: tuple = ()
    # Scripted (non-cluster) scenario kind; see SCRIPTS.
    script: str = ""
    # Analysis knobs.
    ratios: tuple = (1.0, 1.5, 2.0)
    cutoff_fraction: float = 0.66
    series_observers: tuple | None = None

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown protocol {self.protocol!r}; expected one of {PROTOCOLS}"
            )
        if self.script not in SCRIPTS:
            raise ValueError(
                f"unknown script {self.script!r}; expected one of {SCRIPTS}"
            )
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.f is not None:
            _require_count("f", self.f)
        for name in (
            "delta", "intra_delay", "uniform_delay", "jitter",
            "bandwidth_bytes_per_sec", "gst", "pre_gst_delay",
            "qc_extra_wait", "workload_rate", "duplicate_rate",
            "reorder_window",
        ):
            _require_finite(name, getattr(self, name))
        if self.duplicate_rate > 1.0:
            raise ValueError(
                f"duplicate_rate must be <= 1, got {self.duplicate_rate!r}"
            )
        _require_count("checkpoint_interval", self.checkpoint_interval)
        if (
            not isinstance(self.batch_size, int)
            or isinstance(self.batch_size, bool)
            or self.batch_size < 1
        ):
            raise ValueError(
                f"batch_size must be a positive integer, got {self.batch_size!r}"
            )
        for name in ("duration", "round_timeout", "timeout_multiplier"):
            _require_finite(name, getattr(self, name))
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)!r}"
                )
        from repro.obs.trace import TRACE_LEVELS

        if self.trace_level not in TRACE_LEVELS:
            raise ValueError(
                f"unknown trace_level {self.trace_level!r}; "
                f"expected one of {TRACE_LEVELS}"
            )
        self.seeds = tuple(self.seeds)
        if not self.seeds:
            raise ValueError("seeds must not be empty")
        self.ratios = tuple(self.ratios)
        self.region_sizes = tuple(self.region_sizes)
        self.partitions = tuple(self.partitions)
        self.faults.assignments(self.n)  # validate counts against n
        for window in self.partitions:
            if window.end > self.duration and window.start >= self.duration:
                raise ValueError(
                    f"partition window [{window.start:g}, {window.end:g}) "
                    f"lies entirely past duration={self.duration:g}"
                )
        if self.script == "appendix_c" and self.resolved_f() < 2:
            raise ValueError(
                "the appendix_c script needs f >= 2 "
                f"(n={self.n}, f={self.resolved_f()})"
            )

    def resolved_f(self) -> int:
        return self.f if self.f is not None else (self.n - 1) // 3

    def with_overrides(self, **kwargs) -> "ScenarioSpec":
        """A copy with the given fields replaced (matrix helper).

        Dotted ``faults.*`` keys override fields of the fault mix.
        """
        fault_overrides = {}
        for key in list(kwargs):
            if key.startswith("faults."):
                fault_overrides[key.split(".", 1)[1]] = kwargs.pop(key)
        if fault_overrides:
            kwargs["faults"] = replace(self.faults, **fault_overrides)
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # resolution into runnable pieces
    # ------------------------------------------------------------------

    def build_topology(self) -> Topology:
        if self.topology == "uniform":
            return UniformTopology(self.n, delay=self.uniform_delay)
        if self.topology == "symmetric":
            return SymmetricTopology(
                self.n, delta=self.delta, intra_delay=self.intra_delay
            )
        if self.topology == "asymmetric":
            if self.n != 100:
                raise ValueError(
                    "the asymmetric topology is defined for n=100 (45/45/10)"
                )
            return AsymmetricTopology(
                delta=self.delta, intra_delay=self.intra_delay
            )
        if self.topology == "regions":
            if sum(self.region_sizes) != self.n:
                raise ValueError(
                    f"region_sizes {self.region_sizes} must sum to n={self.n}"
                )
            inter = {
                (i, j): self.delta
                for i in range(len(self.region_sizes))
                for j in range(i + 1, len(self.region_sizes))
            }
            return RegionTopology(
                self.region_sizes, inter, intra_delay=self.intra_delay
            )
        raise ValueError(f"unknown topology {self.topology!r}")

    def network_config(self, seed: int) -> NetworkConfig:
        return NetworkConfig(seed=seed, **_forwarded(self, NetworkConfig))

    def observer_ids(self) -> tuple:
        if self.observers == "all":
            return tuple(range(self.n))
        if isinstance(self.observers, int):
            stride = max(1, self.observers)
            return tuple(range(0, self.n, stride))
        return tuple(self.observers)

    def replica_config(self, replica_id: int) -> ReplicaConfig:
        """The per-replica view: every knob the replica's config class
        declares under the spec's own name, plus the three derived
        values (``f``, ``observer``, Streamlet's slot)."""
        streamlet = self.protocol in ("streamlet", "sft-streamlet")
        config_class = StreamletConfig if streamlet else ReplicaConfig
        knobs = _forwarded(self, config_class)
        knobs["f"] = self.resolved_f()
        knobs["observer"] = replica_id in self.observer_ids()
        if streamlet:
            knobs["round_duration"] = self.streamlet_slot()
        return config_class(**knobs)

    def max_delay(self) -> float:
        """The worst one-hop delay the chosen topology can produce.

        Only that topology's knobs count — a max over every preset's
        would inflate uniform pacing by ``delta``/``AB_DELAY`` — except
        that ``AB_DELAY`` counts for ``regions`` too: it sizes every
        committed Streamlet baseline's slot.
        """
        candidates = [self.intra_delay]
        if self.topology == "uniform":
            candidates.append(self.uniform_delay)
        else:
            candidates.extend([self.delta, AB_DELAY])
        return max(candidates)

    def streamlet_slot(self) -> float:
        """Streamlet's lock-step round length: explicit, else ``2Δ``
        from the topology's worst delay plus jitter."""
        if self.streamlet_round_duration is not None:
            return self.streamlet_round_duration
        return 2.0 * (self.max_delay() + self.jitter) + 0.005

    def replica_overrides(self) -> dict[int, type]:
        from repro.runtime.cluster import _PROTOCOL_CLASSES

        base_class = _PROTOCOL_CLASSES[self.protocol]
        return self.faults.replica_overrides(self.n, base_class)

    def build(self, seed: int | None = None):
        """A ready-to-run cluster for one seed (the factory path)."""
        if self.script:
            raise ValueError(
                f"scenario {self.name!r} is scripted ({self.script!r}); "
                "it has no cluster — run it through the fuzz engine "
                "(repro.experiments.runner handles it transparently)"
            )
        return build_cluster(self, seed)


# ----------------------------------------------------------------------
# loading from TOML / JSON
# ----------------------------------------------------------------------

_SPEC_FIELDS = {spec_field.name for spec_field in dataclass_fields(ScenarioSpec)}
_FAULT_FIELDS = {fault_field.name for fault_field in dataclass_fields(FaultMix)}
_PARTITION_FIELDS = {
    partition_field.name for partition_field in dataclass_fields(PartitionWindow)
}


def _forwarded(spec: ScenarioSpec, target) -> dict:
    """``spec``'s value for every knob the ``target`` config dataclass
    declares under the same name — the whole threading mechanism, so a
    new knob is one field here and one on the class that consumes it."""
    return {
        target_field.name: getattr(spec, target_field.name)
        for target_field in dataclass_fields(target)
        if target_field.name in _SPEC_FIELDS
    }


def spec_from_mapping(data: dict, name: str | None = None) -> ScenarioSpec:
    """Build a :class:`ScenarioSpec` from a parsed TOML/JSON mapping.

    Unknown keys raise — typos in scenario files should fail loudly,
    not silently run the default. The ``matrix`` key is reserved for
    :class:`~repro.experiments.campaign.Campaign` and ignored here.
    """
    payload = dict(data)
    payload.pop("matrix", None)
    unknown = set(payload) - _SPEC_FIELDS
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")

    if "faults" in payload:
        fault_data = dict(payload["faults"])
        bad = set(fault_data) - _FAULT_FIELDS
        if bad:
            raise ValueError(f"unknown fault keys: {sorted(bad)}")
        payload["faults"] = FaultMix(**fault_data)
    if "partitions" in payload:
        windows = []
        for window_data in payload["partitions"]:
            window_data = dict(window_data)
            bad = set(window_data) - _PARTITION_FIELDS
            if bad:
                raise ValueError(f"unknown partition keys: {sorted(bad)}")
            if "groups" in window_data:
                window_data["groups"] = tuple(
                    tuple(group) for group in window_data["groups"]
                )
            windows.append(PartitionWindow(**window_data))
        payload["partitions"] = tuple(windows)
    for tuple_key in ("seeds", "ratios", "region_sizes", "series_observers"):
        if tuple_key in payload and payload[tuple_key] is not None:
            payload[tuple_key] = tuple(payload[tuple_key])
    if name is not None and "name" not in payload:
        payload["name"] = name
    return ScenarioSpec(**payload)


def load_scenario_mapping(path) -> dict:
    """Parse a ``.toml`` or ``.json`` scenario file into a mapping."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".toml":
        import tomllib

        return tomllib.loads(text)
    if path.suffix == ".json":
        return json.loads(text)
    raise ValueError(f"unsupported scenario format: {path.suffix!r} ({path})")


def load_scenario(path) -> ScenarioSpec:
    """Load a single :class:`ScenarioSpec` from a TOML or JSON file."""
    path = Path(path)
    return spec_from_mapping(load_scenario_mapping(path), name=path.stem)


# ----------------------------------------------------------------------
# saving back to a mapping / JSON (fuzz replay + shrinker output)
# ----------------------------------------------------------------------


def spec_to_mapping(spec: ScenarioSpec) -> dict:
    """The inverse of :func:`spec_from_mapping`, defaults omitted.

    The mapping is JSON-serializable and loads back into an equivalent
    spec — the contract behind replayable fuzz cases and minimized
    counterexamples.
    """
    defaults = ScenarioSpec()
    fault_defaults = FaultMix()
    data: dict = {"name": spec.name}
    for spec_field in dataclass_fields(ScenarioSpec):
        key = spec_field.name
        value = getattr(spec, key)
        if key == "name":
            continue
        if key == "faults":
            fault_data = {
                fault_field.name: getattr(value, fault_field.name)
                for fault_field in dataclass_fields(FaultMix)
                if getattr(value, fault_field.name)
                != getattr(fault_defaults, fault_field.name)
            }
            if fault_data:
                data[key] = fault_data
            continue
        if key == "partitions":
            if value:
                data[key] = [_window_to_mapping(window) for window in value]
            continue
        if value == getattr(defaults, key):
            continue
        data[key] = list(value) if isinstance(value, tuple) else value
    return data


def _window_to_mapping(window: PartitionWindow) -> dict:
    entry: dict = {"start": window.start, "end": window.end}
    if window.groups:
        entry["groups"] = [list(group) for group in window.groups]
    elif window.split != 0.5:
        entry["split"] = window.split
    return entry


def save_scenario(spec: ScenarioSpec, path) -> None:
    """Write ``spec`` as a replayable JSON scenario file."""
    path = Path(path)
    path.write_text(
        json.dumps(spec_to_mapping(spec), indent=2, sort_keys=True) + "\n"
    )
