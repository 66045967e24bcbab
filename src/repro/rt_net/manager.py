"""Spawn, supervise, and harvest a multi-process TCP replica cluster.

:class:`RuntimeManager` turns one :class:`~repro.experiments.spec.ScenarioSpec`
into ``n`` replica OS processes (``repro.rt_net.replica_proc``) speaking
asyncio TCP on localhost, runs them for a wall-clock duration —
optionally under client-fleet load — then stops them with SIGTERM and
collects the per-process result snapshots into a
:class:`RuntimeReport`.

Only happy-path specs run here for now: the simulated fault machinery
(Byzantine overrides, crash/recovery schedules, partitions, scripted
scenarios) stays a simulator-tier feature, and the manager refuses
specs that ask for it rather than silently dropping the faults.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis.invariants import chain_disagreements
from repro.experiments.spec import ScenarioSpec, spec_to_mapping


class RuntimeLaunchError(Exception):
    pass


def unsupported_features(spec: ScenarioSpec) -> list[str]:
    """Spec features the TCP tier does not implement (empty = runnable)."""
    problems = []
    if spec.script:
        problems.append(f"scripted scenario {spec.script!r}")
    if spec.faults.total():
        problems.append("fault injection (faults.*)")
    if spec.partitions:
        problems.append("partition windows")
    if spec.topology != "uniform":
        problems.append(
            f"topology {spec.topology!r} (localhost TCP is uniform)"
        )
    if spec.bandwidth_bytes_per_sec or spec.gst or spec.duplicate_rate \
            or spec.reorder_window:
        problems.append("simulated network shaping (bandwidth/gst/dup/reorder)")
    if spec.trace_level != "off":
        problems.append("trace_level (cluster-wide span log is in-process)")
    return problems


def _free_ports(count: int, host: str) -> list[int]:
    """Reserve ``count`` distinct ephemeral ports (best effort)."""
    sockets, ports = [], []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((host, 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


class ReplicaProcess:
    """Handle to one spawned replica process."""

    def __init__(self, replica_id: int, popen, log_path: Path,
                 result_path: Path) -> None:
        self.replica_id = replica_id
        self.popen = popen
        self.log_path = log_path
        self.result_path = result_path

    def alive(self) -> bool:
        return self.popen.poll() is None


class RuntimeReport:
    """Everything the stopped cluster left behind."""

    def __init__(self, spec: ScenarioSpec, seed: int, results: dict,
                 wall_seconds: float) -> None:
        self.spec = spec
        self.seed = seed
        #: replica id -> result-JSON dict (missing ids crashed uncleanly).
        self.results = results
        self.wall_seconds = wall_seconds

    def chains(self) -> dict[int, list[str]]:
        """Per-replica committed block-id sequence (hex, commit order)."""
        return {
            rid: [entry[2] for entry in result.get("committed", ())]
            for rid, result in sorted(self.results.items())
        }

    def chains_agree(self) -> bool:
        """No two replicas committed different blocks at one height
        (the oracle's cross-replica prefix-consistency check)."""
        return not chain_disagreements({
            rid: [(height, block) for height, _round, block
                  in result.get("committed", ())]
            for rid, result in self.results.items()
        })

    def min_commits(self) -> int:
        chains = self.chains()
        if len(chains) < self.spec.n:
            return 0
        return min((len(chain) for chain in chains.values()), default=0)

    def _total(self, key: str) -> int:
        return sum(r.get(key, 0) for r in self.results.values())

    def _metric_total(self, name: str) -> int:
        """One replica counter (see ``MetricsRegistry``) summed over replicas."""
        return sum(
            r.get("metrics", {}).get(name, 0) for r in self.results.values()
        )

    def total_replies(self) -> int:
        return self._total("replies_sent")

    def txs_carried(self) -> int:
        """Transactions in committed blocks, summed over replicas."""
        return self._total("txs_carried")

    def txs_distinct(self) -> int:
        """Of those, the ones committed for the first time (still
        pending when their block committed); the rest were re-proposed
        duplicates."""
        return self._total("txs_distinct")

    def summary(self) -> dict:
        carried, distinct = self.txs_carried(), self.txs_distinct()
        return {
            "scenario": self.spec.name,
            "protocol": self.spec.protocol,
            "n": self.spec.n,
            "seed": self.seed,
            "wall_seconds": round(self.wall_seconds, 3),
            "replicas_reporting": len(self.results),
            "min_commits": self.min_commits(),
            "chains_agree": self.chains_agree(),
            "replies_sent": self.total_replies(),
            "txs_carried": carried,
            "txs_distinct": distinct,
            "carried_per_distinct": (
                round(carried / distinct, 4) if distinct else None
            ),
            "blocks_proposed": self._metric_total("blocks_proposed"),
            "proposals_deferred": self._metric_total("proposals_deferred"),
            "blocks_truncated": self._metric_total(
                "checkpoint.blocks_truncated"
            ),
            "commits": {
                rid: result.get("commits", 0)
                for rid, result in sorted(self.results.items())
            },
        }


class RuntimeManager:
    """Lifecycle owner of one TCP replica cluster on this machine."""

    def __init__(
        self,
        spec: ScenarioSpec,
        seed: int | None = None,
        host: str = "127.0.0.1",
        workdir: str | Path | None = None,
    ) -> None:
        problems = unsupported_features(spec)
        if problems:
            raise ValueError(
                f"scenario {spec.name!r} is not runnable on the TCP tier: "
                + "; ".join(problems)
            )
        self.spec = spec
        self.seed = spec.seeds[0] if seed is None else seed
        self.host = host
        if workdir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-rt-")
            self.workdir = Path(self._tempdir.name)
        else:
            self._tempdir = None
            self.workdir = Path(workdir)
            self.workdir.mkdir(parents=True, exist_ok=True)
        self.ports = _free_ports(spec.n, host)
        self.processes: dict[int, ReplicaProcess] = {}
        self._started_at: float | None = None

    # ------------------------------------------------------------------
    # spawn / readiness
    # ------------------------------------------------------------------

    def _config_payload(self, replica_id: int) -> dict:
        return {
            "spec": spec_to_mapping(self.spec),
            "seed": self.seed,
            "epoch": self._epoch,
            "host": self.host,
            "ports": {rid: port for rid, port in enumerate(self.ports)},
            "duration": self.spec.duration,
            "result_path": str(self.workdir / f"result_{replica_id}.json"),
        }

    def start(self) -> None:
        """Write configs and spawn one process per replica."""
        import repro

        self._epoch = time.time()
        pythonpath = str(Path(repro.__file__).parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            pythonpath if not existing
            else pythonpath + os.pathsep + existing
        )
        for replica_id in range(self.spec.n):
            config_path = self.workdir / f"config_{replica_id}.json"
            config_path.write_text(
                json.dumps(self._config_payload(replica_id), indent=2)
            )
            log_path = self.workdir / f"replica_{replica_id}.log"
            log_file = open(log_path, "w")
            popen = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.rt_net.replica_proc",
                    str(config_path),
                    str(replica_id),
                ],
                stdout=log_file,
                stderr=subprocess.STDOUT,
                env=env,
            )
            log_file.close()  # the child holds its own descriptor
            self.processes[replica_id] = ReplicaProcess(
                replica_id,
                popen,
                log_path,
                self.workdir / f"result_{replica_id}.json",
            )
        self._started_at = time.monotonic()

    def wait_ready(self, timeout: float = 20.0) -> None:
        """Block until every replica's server port accepts connections."""
        deadline = time.monotonic() + timeout
        for replica_id, port in enumerate(self.ports):
            while True:
                process = self.processes[replica_id]
                if not process.alive():
                    raise RuntimeLaunchError(
                        f"replica {replica_id} exited during startup "
                        f"(rc={process.popen.returncode}); see "
                        f"{process.log_path}"
                    )
                try:
                    with socket.create_connection(
                        (self.host, port), timeout=0.25
                    ):
                        break
                except OSError:
                    if time.monotonic() > deadline:
                        raise RuntimeLaunchError(
                            f"replica {replica_id} never listened on "
                            f"port {port}; see {process.log_path}"
                        )
                    time.sleep(0.05)

    # ------------------------------------------------------------------
    # run / stop / harvest
    # ------------------------------------------------------------------

    def stop(self, grace: float = 10.0) -> RuntimeReport:
        """SIGTERM everyone, harvest results, SIGKILL stragglers."""
        for process in self.processes.values():
            if process.alive():
                process.popen.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + grace
        for process in self.processes.values():
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.popen.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.popen.kill()
                process.popen.wait(timeout=10)
        results = {}
        for replica_id, process in self.processes.items():
            if process.result_path.exists():
                results[replica_id] = json.loads(
                    process.result_path.read_text()
                )
        wall = (
            time.monotonic() - self._started_at
            if self._started_at is not None else 0.0
        )
        return RuntimeReport(self.spec, self.seed, results, wall)

    def run(self, duration: float | None = None) -> RuntimeReport:
        """Convenience: start, wait ready, run for ``duration``, stop."""
        run_for = self.spec.duration if duration is None else duration
        self.start()
        try:
            self.wait_ready()
            time.sleep(run_for)
        finally:
            report = self.stop()
        return report

    def endpoints(self) -> dict[int, tuple[str, int]]:
        return {rid: (self.host, port) for rid, port in enumerate(self.ports)}

    def cleanup(self) -> None:
        for process in self.processes.values():
            if process.alive():
                process.popen.kill()
        if self._tempdir is not None:
            self._tempdir.cleanup()
