"""Smoke test of the benchmark harness: ``python3 -m pytest bench/``.

Not part of the tier-1 ``testpaths``: it starts real replica
processes and takes a couple of minutes.  It checks the harness
against BENCHMARK.json, not the program's speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )


def parse(stdout: str):
    """``(printed rows, result objects)`` of one run.py invocation."""
    rows, results = [], []
    for line in stdout.splitlines():
        if line.startswith("{"):
            results.append(json.loads(line))
        elif line.strip():
            rows.append(line.split())
    return rows, results


def test_contract_names_and_bounds():
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = WORKLOADS + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in CONTRACT["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in CONTRACT["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_every_end_to_end_metric_printed_once_per_workload():
    done = run_bench("--quick", "--trace", "0")
    assert done.returncode == 0, done.stderr
    rows, results = parse(done.stdout)
    assert len(results) == len(WORKLOADS)
    expected = {
        (workload, metric["name"]): metric["unit"]
        for workload in WORKLOADS for metric in CONTRACT["end_to_end"]
    }
    printed = [(row[0], row[1]) for row in rows]
    assert sorted(printed) == sorted(expected)
    for workload, metric, value, unit in rows:
        assert unit == expected[(workload, metric)]
        assert float(value) > 0, (workload, metric)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1


@pytest.fixture(scope="module")
def traced():
    """One traced run per tier: {workload: metrics}."""
    out = {}
    for workload in ("rt4_closed_w256", "sim16_faults"):
        done = run_bench("--quick", "--layers", "--workload", workload)
        assert done.returncode == 0, done.stderr
        rows, results = parse(done.stdout)
        declared = [m["name"] for m in CONTRACT["per_layer"]]
        assert sorted(row[1] for row in rows) == sorted(declared)
        assert results[0]["correct"]
        out[workload] = results[0]["metrics"]
    return out


def test_shares_come_from_the_traced_run_and_sum_to_one(traced):
    for workload, metrics in traced.items():
        total = sum(
            entry["value"] for name, entry in metrics.items()
            if name.startswith("share.")
        )
        assert total == pytest.approx(1.0, abs=0.01), workload
    assert traced["rt4_closed_w256"]["share.codec"]["value"] > 0
    assert traced["sim16_faults"]["share.codec"]["value"] == 0
    for metrics in traced.values():
        assert metrics["trace.overhead_frac"]["value"] > 0


def test_every_per_layer_metric_is_measured_on_some_tier(traced):
    # Counts that are legitimately 0 on these two healthy runs.
    may_be_zero = {
        "fail_frac", "rt.sched_late_p99_ms", "rt.mempool_pending_end",
        "rt.send_errors", "sim.tx_duplicates", "sim.commit_lat_ms",
        "sim.strong2f_lat_ms", "sim.phase.endorse_to_commit_ms",
    }
    for metric in CONTRACT["per_layer"]:
        name = metric["name"]
        if name in may_be_zero or name.startswith("share."):
            continue
        assert any(m[name]["value"] != 0 for m in traced.values()), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "sim16_tx", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert "{" not in done.stdout
