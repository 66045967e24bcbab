"""Transport/Clock seam lint: protocol code must not reach the backend.

Replicas talk to the outside world only through the
:class:`~repro.protocols.base.Transport` and
:class:`~repro.protocols.base.Clock` protocols on their
:class:`~repro.protocols.base.ReplicaContext` — that seam is what lets
the same replica classes run under the deterministic simulator and the
asyncio TCP runtime.  A direct ``.network`` or ``.simulator`` attribute
reach from protocol-layer code would silently re-couple it to the
simulator backend and break the TCP tier, so this test greps for new
reaches and names the offending lines.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Packages that must stay backend-agnostic.  runtime/, net/, and
#: rt_net/ are the backends themselves and may name their own
#: attributes freely.
SEALED_PACKAGES = ("protocols", "core", "sync")

FORBIDDEN = re.compile(r"\.(network|simulator)\b")


def _violations():
    found = []
    for package in SEALED_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if FORBIDDEN.search(line):
                    relative = path.relative_to(SRC.parent)
                    found.append(f"{relative}:{number}: {line.strip()}")
    return found


def test_sealed_packages_exist():
    for package in SEALED_PACKAGES:
        assert (SRC / package).is_dir(), f"src/repro/{package} moved?"


def test_no_backend_reaches_in_protocol_code():
    violations = _violations()
    assert not violations, (
        "protocol-layer code reaches the simulator backend directly; "
        "use the ReplicaContext Transport/Clock surface "
        "(ctx.send/multicast/set_timer/cancel_timer/now) instead:\n"
        + "\n".join(violations)
    )


# ----------------------------------------------------------------------
# One authentication gate
# ----------------------------------------------------------------------

#: A signature check or a signer comparison.  Outside the gate either
#: one is a second, hand-spelled copy of the authentication rule.
SIGNATURE_CHECK = re.compile(
    r"registry\.verify\(|\.signer\s*[!=]=|[!=]=\s*[\w.]*\.signer\b"
)

#: (file, function) → what may appear there: the gate itself, and the
#: snapshot certificate's per-signer loop feeding ``verify_quorum``.
GATE_SITES = {
    ("protocols/base.py", "_authentic"): SIGNATURE_CHECK,
    ("sync/checkpoint.py", "_validate_snapshot"): re.compile(
        r"signature\.signer != replica_id"
    ),
}


def _enclosing_functions(tree):
    """Line number → name of the innermost function containing it."""
    owner = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for number in range(node.lineno, node.end_lineno + 1):
                if number not in owner or owner[number][0] < node.lineno:
                    owner[number] = (node.lineno, node.name)
    return {number: name for number, (_, name) in owner.items()}


def _signature_checks_outside_the_gate():
    found = []
    for package in SEALED_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            text = path.read_text()
            owner = _enclosing_functions(ast.parse(text))
            relative = path.relative_to(SRC).as_posix()
            for number, line in enumerate(text.splitlines(), start=1):
                if not SIGNATURE_CHECK.search(line):
                    continue
                allowed = GATE_SITES.get((relative, owner.get(number)))
                if allowed is not None and allowed.search(line):
                    continue
                found.append(f"src/repro/{relative}:{number}: {line.strip()}")
    return found


def test_the_gate_is_where_the_lint_looks():
    for relative, function in GATE_SITES:
        text = (SRC / relative).read_text()
        assert f"def {function}(" in text, f"{relative}::{function} moved?"


def test_signatures_are_checked_only_at_the_gate():
    violations = _signature_checks_outside_the_gate()
    assert not violations, (
        "signature checked outside BaseReplica._authentic; call the gate "
        "instead of spelling the rule again:\n" + "\n".join(violations)
    )


# ----------------------------------------------------------------------
# One commit stream
# ----------------------------------------------------------------------

#: A post-hoc walk of the commit log through the block store.  It
#: misses every block checkpoint truncation pruned before the walk;
#: consumers of committed blocks subscribe with
#: ``CommitTracker.add_commit_listener`` instead.
POST_HOC_WALK = re.compile(r"maybe_get\(event\.block_id\)")

#: Files that may still walk, and why.
POST_HOC_WALK_SITES = {
    # Parent linkage of the commit log; tolerates a pruned block.
    "analysis/invariants.py",
    # Its docstring documents the mempool-wait loss under truncation.
    "obs/phases.py",
}


def _post_hoc_walks(root=SRC):
    found = []
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if relative in POST_HOC_WALK_SITES:
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if POST_HOC_WALK.search(line):
                found.append(f"src/repro/{relative}:{number}: {line.strip()}")
    return found


def test_post_hoc_walk_sites_exist():
    for relative in POST_HOC_WALK_SITES:
        text = (SRC / relative).read_text()
        assert POST_HOC_WALK.search(text), f"{relative} no longer walks"


def test_the_walk_lint_names_a_new_walk(tmp_path):
    (tmp_path / "consumer.py").write_text(
        "for event in tracker.commit_order:\n"
        "    block = store.maybe_get(event.block_id)\n"
    )
    assert _post_hoc_walks(tmp_path) == [
        "src/repro/consumer.py:2: block = store.maybe_get(event.block_id)"
    ]


def test_committed_blocks_are_consumed_from_the_stream():
    violations = _post_hoc_walks()
    assert not violations, (
        "commit log re-walked through the block store, which misses "
        "blocks checkpoint truncation pruned; subscribe with "
        "CommitTracker.add_commit_listener instead:\n" + "\n".join(violations)
    )


# ----------------------------------------------------------------------
# One mempool wiring
# ----------------------------------------------------------------------

#: Rebinding a replica's proposal source.  Outside the sites below it
#: is a second, hand-spelled mempool wiring next to ``attach``.
PAYLOAD_SOURCE_BINDING = re.compile(r"\bpayload_source\s*=(?!=)")

#: (file, function) that may rebind it: the replica's default, the one
#: wiring both tiers share, and the Section 5 conflict-deferral pool
#: (its own wiring until it is folded onto ``attach``).
PAYLOAD_SOURCE_SITES = {
    ("protocols/base.py", "__init__"),
    ("runtime/client.py", "attach"),
    ("runtime/conflict_policy.py", "bind"),
}


def _lines_outside(pattern, sites, root=SRC):
    """Lines matching ``pattern`` outside the (file, function) ``sites``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        owner = _enclosing_functions(ast.parse(text))
        relative = path.relative_to(root).as_posix()
        for number, line in enumerate(text.splitlines(), start=1):
            if not pattern.search(line):
                continue
            if (relative, owner.get(number)) in sites:
                continue
            found.append(f"src/repro/{relative}:{number}: {line.strip()}")
    return found


def _payload_source_bindings(root=SRC):
    return _lines_outside(PAYLOAD_SOURCE_BINDING, PAYLOAD_SOURCE_SITES, root)


def test_payload_source_sites_exist():
    for relative, function in PAYLOAD_SOURCE_SITES:
        text = (SRC / relative).read_text()
        assert f"def {function}(" in text, f"{relative}::{function} moved?"
        assert PAYLOAD_SOURCE_BINDING.search(text), f"{relative} no longer binds"


def test_the_wiring_lint_names_a_new_binding(tmp_path):
    (tmp_path / "host.py").write_text(
        "def wire(replica, mempool):\n"
        "    replica.payload_source = mempool.payload_source\n"
    )
    assert _payload_source_bindings(tmp_path) == [
        "src/repro/host.py:2: replica.payload_source = mempool.payload_source"
    ]


def test_replicas_are_wired_to_mempools_only_by_attach():
    violations = _payload_source_bindings()
    assert not violations, (
        "payload_source rebound outside repro.runtime.client.attach; "
        "wire the replica to its mempool with attach() instead:\n"
        + "\n".join(violations)
    )


# ----------------------------------------------------------------------
# One replica construction, one protocol table
# ----------------------------------------------------------------------

#: Building a replica's context.  Outside ``build_replica`` it is a
#: second, hand-spelled replica assembly; both tiers and the
#: simulator's restart call the builder.
REPLICA_CONTEXT_CALL = re.compile(r"\bReplicaContext\(")
REPLICA_BUILDER = ("runtime/cluster.py", "build_replica")


def _constants(nodes):
    return {node.value for node in nodes if isinstance(node, ast.Constant)}


def _protocol_tables(root=SRC):
    """Dicts keyed by a protocol name, and collections of every protocol
    name, other than ``runtime/cluster.py::PROTOCOL_CLASSES``."""
    from repro.runtime.cluster import PROTOCOL_CLASSES

    names = set(PROTOCOL_CLASSES)
    found = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        relative = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Dict):
                table = bool(names & _constants(node.keys))
            elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                table = names <= _constants(node.elts)
            else:
                continue
            line = lines[node.lineno - 1].strip()
            if table and not (
                relative == "runtime/cluster.py"
                and line.startswith("PROTOCOL_CLASSES = ")
            ):
                found.append(f"src/repro/{relative}:{node.lineno}: {line}")
    return found


def test_the_builder_and_the_table_are_where_the_lint_looks():
    text = (SRC / REPLICA_BUILDER[0]).read_text()
    assert "def build_replica(" in text and "\nPROTOCOL_CLASSES = {" in text
    assert len(REPLICA_CONTEXT_CALL.findall(text)) == 1


def test_the_construction_lint_names_a_new_site(tmp_path):
    (tmp_path / "host.py").write_text(
        "def make(spec, transport, clock, registry):\n"
        "    context = ReplicaContext(0, transport, clock, registry)\n"
    )
    assert _lines_outside(REPLICA_CONTEXT_CALL, {REPLICA_BUILDER}, tmp_path) == [
        "src/repro/host.py:2: context = ReplicaContext(0, transport, clock, registry)"
    ]


def test_the_table_lint_names_a_second_table(tmp_path):
    (tmp_path / "host.py").write_text(
        'CLASSES = {"fbft": FBFTDiemBFTReplica}\n'
        'NAMES = ("diembft", "sft-diembft", "fbft", "streamlet", "sft-streamlet")\n'
        'STREAMLETS = ("streamlet", "sft-streamlet")\n'
    )
    assert [site.split(": ")[0] for site in _protocol_tables(tmp_path)] == [
        "src/repro/host.py:1", "src/repro/host.py:2"
    ]


def test_replicas_are_constructed_only_by_build_replica():
    violations = _lines_outside(REPLICA_CONTEXT_CALL, {REPLICA_BUILDER})
    assert not violations, (
        "ReplicaContext built outside runtime.cluster.build_replica; "
        "build the replica with build_replica() instead:\n"
        + "\n".join(violations)
    )


def test_protocol_names_map_to_classes_only_in_protocol_classes():
    violations = _protocol_tables()
    assert not violations, (
        "a second protocol-name table; read runtime.cluster."
        "PROTOCOL_CLASSES instead:\n" + "\n".join(violations)
    )


# ----------------------------------------------------------------------
# One spelling per knob
# ----------------------------------------------------------------------

SCENARIOS = SRC.parents[1] / "scenarios"

#: Config fields a spec derives rather than forwards by name.
DERIVED_CONFIG_FIELDS = {"observer", "round_duration", "seed"}

#: Knobs no committed scenario or fuzz seed moves off its default, and
#: the non-test caller that does.
KNOBS_SET_ELSEWHERE = {
    # The Section 3.4 ablation, benchmarks/test_ablation_intervals.py.
    "generalized_intervals",
    "interval_window",
    # `repro trace` and the bench harness's spans/full variants.
    "trace_level",
    # The bench harness's noflight variant.
    "flight_recorder",
    # The WAL differential; the fuzzer deliberately leaves it out.
    "faults.amnesia",
}


def _run_specs():
    """Every expanded scenarios/ job plus fuzz seeds 0-299 per profile."""
    from repro.experiments import Campaign
    from repro.fuzz import PROFILES, generate_spec

    paths = sorted(SCENARIOS.glob("*.toml"))
    paths += sorted((SCENARIOS / "fuzz_corpus").glob("*.json"))
    specs = [job.spec for path in paths for job in Campaign.from_file(path).expand()]
    for profile in PROFILES.values():
        specs += [generate_spec(seed, profile) for seed in range(300)]
    return specs


def test_every_config_knob_is_a_spec_field():
    from dataclasses import fields

    from repro.experiments import ScenarioSpec
    from repro.net.network import NetworkConfig
    from repro.protocols.base import ReplicaConfig
    from repro.protocols.streamlet.replica import StreamletConfig

    spec_fields = {field.name for field in fields(ScenarioSpec)}
    stray = {
        f"{config.__name__}.{field.name}"
        for config in (ReplicaConfig, StreamletConfig, NetworkConfig)
        for field in fields(config)
        if field.name not in spec_fields | DERIVED_CONFIG_FIELDS
    }
    assert not stray, (
        "config knobs no ScenarioSpec can set; make them constants or "
        f"spec fields: {sorted(stray)}"
    )


def test_every_spec_knob_is_set_by_some_run():
    from dataclasses import fields

    from repro.experiments import FaultMix, ScenarioSpec

    specs = _run_specs()
    unset = set()
    for prefix, default, values in (
        ("", ScenarioSpec(), lambda spec: spec),
        ("faults.", FaultMix(), lambda spec: spec.faults),
    ):
        for field in fields(default):
            if all(
                getattr(values(spec), field.name) == getattr(default, field.name)
                for spec in specs
            ):
                unset.add(prefix + field.name)
    assert unset == KNOBS_SET_ELSEWHERE, (
        "spec knobs only their default reaches (delete them, or name "
        f"their caller here): {sorted(unset - KNOBS_SET_ELSEWHERE)}; "
        f"allowlisted knobs a run now sets: {sorted(KNOBS_SET_ELSEWHERE - unset)}"
    )
