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
