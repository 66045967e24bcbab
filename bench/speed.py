"""How fast is this machine right now?

The hosts this benchmark runs on do not hold a speed: the same
single-threaded Python loop takes 0.9x to 1.8x its usual time, in
phases that last from a second to minutes, while steal time stays at
zero (a neighbour on the same core or socket, not the scheduler).  Raw
times taken minutes apart on the same code differ by 20-40 %, more
than any bound this benchmark could set.

:class:`SpeedMeter` measures the drift while the workload runs.  A
background thread runs a fixed reference loop every few milliseconds
and records the CPU time it took, so descheduling does not count, only
how fast instructions retire.  The interpreter hands the thread the
GIL between the workload's bytecodes, which interleaves the two at
millisecond grain without touching how the workload is called.  The
reference loop's time tracks the workload's with correlation 0.9 on
this host.

``speed`` is REFERENCE_US over the measured loop time: 1.0 on the
machine state the constant was taken on, below 1 when the machine is
slow.  The benchmark multiplies times by it and divides rates by it,
and so reports every time-based metric *at reference speed*.  The
loop and the constant are frozen: changing either re-bases every
number.
"""

from __future__ import annotations

import hashlib
import threading
import time

#: CPU microseconds one reference loop takes at reference speed.
REFERENCE_US = 120.0
#: Pause between loops: the meter costs the workload about a tenth of
#: one core.
_PAUSE_S = 0.004


def reference_loop() -> None:
    """A fixed slice of interpreter-bound work, about 0.12 ms.

    The mix is the program's: integer arithmetic, dict and list
    traffic, attribute-free function calls, small byte strings and a
    hash over them.
    """
    table: dict = {}
    parts = []
    total = 0
    for index in range(900):
        total += index * index
        table[index & 63] = total
        if index % 30 == 0:
            parts.append(total.to_bytes(8, "big", signed=False))
    hashlib.sha256(b"".join(parts)).digest()
    sorted(table.values())


class SpeedMeter:
    """Sample the reference loop from a background thread.

    ``restart()`` opens a phase and ``mark()`` closes it, returning the
    relative speed over the samples in between, so one meter covers
    several phases of a run.  Imports nothing heavy: a job that times
    its own imports starts the meter first.
    """

    def __init__(self) -> None:
        self._samples: list = []
        self._last: float | None = None
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._sample, name="bench-speed-meter", daemon=True
        )

    def __enter__(self) -> "SpeedMeter":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        clock = time.thread_time
        while not self._stop.is_set():
            started = clock()
            reference_loop()
            self._samples.append(clock() - started)
            self._stop.wait(_PAUSE_S)

    def restart(self) -> None:
        """Forget the samples so far."""
        self._samples = []

    def mark(self) -> float:
        """Relative speed since the last ``restart()`` or ``mark()``.

        The mean of the per-sample speeds: samples are evenly spaced in
        time, so this is the time average a workload running alongside
        experienced.  A phase too short to hold three samples reads the
        speed of the phase before it.
        """
        samples, self._samples = self._samples, []
        if len(samples) >= 3:
            self._last = sum(
                REFERENCE_US / (s * 1e6) for s in samples
            ) / len(samples)
        elif self._last is None:
            raise RuntimeError("the speed meter took too few samples")
        return self._last
