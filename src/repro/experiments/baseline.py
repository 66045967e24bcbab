"""Behaviour baselines: exact metric digests.

A job's ``metrics`` section is byte-identical for a given spec and
seed, so "did behaviour move?" has one exact answer: does each job's
metrics digest equal the committed one?  Campaign and fuzz reports
carry a top-level ``digests`` map; a baseline file is the same
``{name: digest}`` map, committed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def save_report(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path) -> dict:
    return json.loads(Path(path).read_text())


def metrics_digest(metrics: dict) -> str:
    """sha256 of the sorted-key ``metrics`` JSON, first 16 hex digits."""
    return hashlib.sha256(
        json.dumps(metrics, sort_keys=True).encode()
    ).hexdigest()[:16]


def load_baseline(path) -> dict:
    """A committed ``{name: digest}`` file; ValueError if it is not one."""
    baseline = load_report(path)
    if not isinstance(baseline, dict) or not all(
        isinstance(digest, str) for digest in baseline.values()
    ):
        raise ValueError(f"{path}: not a {{name: digest}} map")
    return baseline


def moved_digests(digests: dict, baseline: dict) -> dict:
    """``name → (baseline, now)`` for every entry that differs.

    The key sets must match exactly: a name on one side only is moved,
    with ``None`` for its missing side.
    """
    return {
        name: (baseline.get(name), digests.get(name))
        for name in sorted(set(baseline) | set(digests))
        if baseline.get(name) != digests.get(name)
    }
