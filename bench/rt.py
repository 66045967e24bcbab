"""TCP tier: one load-generating process against a real replica cluster.

The generator is a single asyncio task set in this process with one
connection per replica.  Many requests are in flight on each
connection; replicas route replies by the connection's hello id, so
one id serves every request.  Requests and their frames are generated
from the seed before any clock starts.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import signal
import statistics
import time
from pathlib import Path

from repro.app.kvstore import KVCommand
from repro.rt_net.codec import FrameDecoder, encode_frame
from repro.rt_net.manager import RuntimeManager
from repro.types.messages import ClientReplyMsg, ClientRequestMsg

from speed import SpeedMeter
from workloads import (
    PAYLOAD_BYTES,
    RT_DRAIN_S,
    RT_WARMUP_S,
    RT_WINDOW,
    rt_spec,
)

CLIENT_ID = 1
_KEY_SPACE = 256
_CLK_TCK = os.sysconf("SC_CLK_TCK")
#: Requests generated per second of load; the closed loop stops early
#: (and says so) if the cluster ever outruns it.
_MAX_RATE = 6000.0
#: Times the cluster is brought up per run; setup_s is their median.
SETUPS = 3


def make_requests(seed: int, count: int) -> list:
    """``count`` seeded ``(txid, request frame)`` pairs.

    The op mix is the program's own KV workload mix (85 % set, 10 %
    transfer, 5 % del over 256 keys); set values are random hex, padded
    so the encoded command is PAYLOAD_BYTES long.
    """
    rng = random.Random(f"bench-rt:{seed}")
    out = []
    for sequence in range(count):
        roll = rng.random()
        key = f"k{rng.randrange(_KEY_SPACE)}"
        if roll < 0.85:
            width = PAYLOAD_BYTES - len(key) - 8
            command = KVCommand(
                op="set", key=key, value=rng.randbytes(width).hex()[:width]
            )
        elif roll < 0.95:
            command = KVCommand(
                op="transfer", key=key,
                key2=f"k{rng.randrange(_KEY_SPACE)}", amount=1,
            )
        else:
            command = KVCommand(op="del", key=key)
        transaction = command.to_transaction(CLIENT_ID, sequence)
        frame = encode_frame(
            ClientRequestMsg(sender=CLIENT_ID, transaction=transaction)
        )
        out.append((transaction.txid(), frame))
    return out


def percentile(ordered: list, quantile: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    rank = max(1, -(-len(ordered) * quantile // 1))
    return ordered[int(rank) - 1]


def _cpu_seconds(pids) -> float:
    """utime + stime of ``pids``, from /proc/<pid>/stat."""
    ticks = 0
    for pid in pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLK_TCK


def _peak_rss_mb(pids) -> float:
    peak = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                peak = max(peak, int(line.split()[1]))
    return peak / 1024.0


class LoadGenerator:
    """Open- or closed-loop client over one connection per replica."""

    def __init__(self, connections: dict, requests: list, quorum: int) -> None:
        self.loop = asyncio.get_running_loop()
        self.readers = [reader for reader, _ in connections.values()]
        self.writers = [writer for _, writer in connections.values()]
        self.requests = requests
        self.quorum = quorum
        self.cursor = 0
        #: txid -> [start time, {block_id: [replying replica ids]}]
        self.pending: dict = {}
        self.starts: list = []
        #: (start, acked at, block_id, replica ids that formed the quorum)
        self.acks: list = []
        self.late: list = []
        self.refill_until: float | None = None
        self.exhausted = False

    def issue(self, count: int, starts) -> None:
        """Send the next ``count`` requests to every replica."""
        batch = self.requests[self.cursor:self.cursor + count]
        if len(batch) < count:
            self.exhausted = True
        if not batch:
            return
        self.cursor += len(batch)
        for (txid, _frame), start in zip(batch, starts):
            self.pending[txid] = [start, {}]
            self.starts.append(start)
        data = b"".join(frame for _txid, frame in batch)
        for writer in self.writers:
            writer.write(data)

    async def read_replies(self, reader) -> None:
        decoder = FrameDecoder()
        pending = self.pending
        while True:
            data = await reader.read(1 << 16)
            if not data:
                return
            now = self.loop.time()
            acked = 0
            for reply in decoder.feed(data):
                if not isinstance(reply, ClientReplyMsg):
                    continue
                entry = pending.get(reply.txid)
                if entry is None:
                    continue  # quorum already reached on other replies
                senders = entry[1].setdefault(reply.block_id, [])
                if reply.sender in senders:
                    continue
                senders.append(reply.sender)
                if len(senders) >= self.quorum:
                    del pending[reply.txid]
                    self.acks.append(
                        (entry[0], now, reply.block_id, tuple(senders))
                    )
                    acked += 1
            if acked and self.refill_until is not None \
                    and now < self.refill_until:
                self.issue(acked, [now] * acked)

    async def open_loop(self, rate: float, begin: float, end: float) -> None:
        """Send at uniform spacing; a request's clock starts when due."""
        total = int((end - begin) * rate)
        sent = 0
        while sent < total:
            due = begin + sent / rate
            now = self.loop.time()
            if due > now:
                await asyncio.sleep(due - now)
                now = self.loop.time()
            ready = min(total, int((now - begin) * rate) + 1) - sent
            starts = [begin + (sent + k) / rate for k in range(ready)]
            self.late.extend(now - start for start in starts)
            self.issue(ready, starts)
            sent += ready
            if self.exhausted:
                return

    async def closed_loop(self, window: int, begin: float, end: float) -> None:
        """Keep ``window`` requests outstanding until ``end``."""
        await asyncio.sleep(max(0.0, begin - self.loop.time()))
        now = self.loop.time()
        self.refill_until = end
        self.issue(window, [now] * window)
        await asyncio.sleep(max(0.0, end - self.loop.time()))
        self.refill_until = None


async def _connect(endpoints: dict) -> dict:
    hello = encode_frame({"kind": "client", "id": CLIENT_ID})
    connections = {}
    for replica_id, (host, port) in sorted(endpoints.items()):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(hello)
        connections[replica_id] = (reader, writer)
    return connections


async def _bring_up(n: int, seed: int, workdir: Path, meter: SpeedMeter,
                    profile_dir=None):
    """Start a cluster and connect the client.

    Returns ``(manager, connections, seconds at reference speed)``.
    With ``profile_dir`` the replicas can profile themselves into it (see
    trace_site/sitecustomize.py); ``start()`` passes the environment on.
    """
    traced = {}
    if profile_dir is not None:
        profile_dir.mkdir(parents=True, exist_ok=True)
        site = str(Path(__file__).resolve().parent / "trace_site")
        inherited = os.environ.get("PYTHONPATH")
        traced = {
            "PYTHONPATH": site + (os.pathsep + inherited if inherited else ""),
            "BENCH_PROFILE_DIR": str(profile_dir),
        }
    saved = {key: os.environ.get(key) for key in traced}
    meter.restart()
    started = time.perf_counter()
    manager = RuntimeManager(rt_spec(n, seed), seed, workdir=workdir)
    try:
        os.environ.update(traced)
        manager.start()
        manager.wait_ready()
        connections = await _connect(manager.endpoints())
    except BaseException:
        manager.cleanup()
        raise
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    took = time.perf_counter() - started
    return manager, connections, took * meter.mark()


async def _close(connections: dict) -> None:
    for _reader, writer in connections.values():
        writer.close()
    for _reader, writer in connections.values():
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _run(n, rate, seed, seconds, workdir: Path, requests,
               setups_wanted: int, profile_dir, meter: SpeedMeter) -> dict:
    loop = asyncio.get_running_loop()
    quorum = (n - 1) // 3 + 1

    setups = []
    for attempt in range(setups_wanted - 1):
        manager, connections, took = await _bring_up(
            n, seed, workdir / f"setup{attempt}", meter
        )
        try:
            setups.append(took)
            await _close(connections)
        finally:
            manager.stop()
            manager.cleanup()
    manager, connections, took = await _bring_up(
        n, seed, workdir / "run", meter, profile_dir
    )
    setups.append(took)

    pids = [process.popen.pid for process in manager.processes.values()]
    generator = LoadGenerator(connections, requests, quorum)
    readers = [
        asyncio.create_task(generator.read_replies(reader))
        for reader in generator.readers
    ]
    try:
        begin = loop.time() + 0.05
        window_start = begin + RT_WARMUP_S
        window_end = window_start + seconds
        if rate is None:
            load = generator.closed_loop(RT_WINDOW, begin, window_end)
        else:
            load = generator.open_loop(rate, begin, window_end)
        load_task = asyncio.create_task(load)

        def signal_replicas(signum) -> None:
            if profile_dir is not None:
                for pid in pids:
                    os.kill(pid, signum)

        await asyncio.sleep(window_start - loop.time())
        signal_replicas(signal.SIGUSR1)  # profile on, see trace_site/
        meter.restart()
        cpu0, driver0 = _cpu_seconds(pids), time.process_time()
        await asyncio.sleep(window_end - loop.time())
        cpu1, driver1 = _cpu_seconds(pids), time.process_time()
        speed = meter.mark()
        signal_replicas(signal.SIGUSR2)
        await load_task

        drain_end = loop.time() + RT_DRAIN_S
        while generator.pending and loop.time() < drain_end:
            await asyncio.sleep(0.02)
        rss_mb = _peak_rss_mb(pids)
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        await _close(connections)
        report = manager.stop()
        manager.cleanup()

    in_window = [a for a in generator.acks if window_start <= a[0] < window_end]
    latencies = sorted((a[1] - a[0]) * 1e3 for a in in_window)
    attempted = sum(1 for s in generator.starts if window_start <= s < window_end)
    acked_in_window = sum(
        1 for a in generator.acks if window_start <= a[1] < window_end
    )
    blocks = {a[2] for a in generator.acks if window_start <= a[1] < window_end}

    # Correctness gate: every replica reports, chains agree on their
    # common prefix, and each acknowledged (txid, block) names a block
    # that every replica of its quorum really committed.
    problems = []
    if len(report.results) != n:
        problems.append(
            f"{len(report.results)} of {n} replicas wrote a result"
        )
    if not report.chains_agree():
        problems.append("replica chains disagree")
    chains = {rid: set(chain) for rid, chain in report.chains().items()}
    for _start, _at, block_id, senders in generator.acks:
        block_hex = block_id.hex()
        if any(block_hex not in chains.get(rid, ()) for rid in senders):
            problems.append(
                f"acked block {block_hex[:10]} missing from a reporter's chain"
            )
            break
    if generator.exhausted:
        problems.append("pre-generated requests ran out before the window closed")
    if not latencies:
        problems.append("no request was acknowledged in the window")
        latencies = [0.0]

    # A closed loop does as much work as the machine's speed allows, so
    # its rates and times are put at reference speed (see speed.py).  An
    # open loop does the work its schedule sets: throughput is the
    # offered rate and CPU per request is utilisation over that rate,
    # neither follows the machine's speed, and most of its latency is
    # the replicas' 50 ms reply poll, so it is reported as measured.
    scale = speed if rate is None else 1.0
    results = report.results.values()
    commits = max((r["commits"] for r in results), default=0)
    late = sorted(generator.late)
    cpu_s = cpu1 - cpu0
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": attempted - len(in_window),
        "setup_s": statistics.median(setups),
        "lat_p50_ms": percentile(latencies, 0.50) * scale,
        "lat_p90_ms": percentile(latencies, 0.90) * scale,
        "lat_p99_ms": percentile(latencies, 0.99) * scale,
        "lat_samples": len(in_window),
        "tput_tx_s": acked_in_window / seconds / scale,
        "cpu_ms_per_tx": cpu_s * 1e3 / max(1, acked_in_window) * scale,
        "rss_peak_mb": rss_mb,
        "speed": speed,
        "blocks_per_s": len(blocks) / seconds,
        "tx_per_block": acked_in_window / max(1, len(blocks)),
        "frames_per_block": sum(r["frames_sent"] for r in results)
        / max(1, commits),
        "replica_cpu_cores": cpu_s / seconds,
        "driver_cpu_s": driver1 - driver0,
        "sched_late_p99_ms": percentile(late, 0.99) * 1e3 if late else 0.0,
        "mempool_pending_end": max(
            (r["mempool_pending"] for r in results), default=0
        ),
        "send_errors": sum(r["send_errors"] for r in results),
    }


def run(n: int, rate, seed: int, seconds: float, workdir: Path,
        setups: int = SETUPS, profile_dir: Path | None = None) -> dict:
    """One measured run of a TCP workload; see ``_run`` for the keys.

    The cluster is brought up ``setups`` times (the last one carries the
    load); ``profile_dir`` makes it a traced run.
    """
    load_seconds = RT_WARMUP_S + seconds + RT_DRAIN_S
    requests = make_requests(
        seed, int((rate or _MAX_RATE) * load_seconds) + RT_WINDOW
    )
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with SpeedMeter() as meter:
            return asyncio.run(_run(
                n, rate, seed, seconds, workdir, requests, setups,
                profile_dir, meter,
            ))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
