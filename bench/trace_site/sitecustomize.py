"""Profile a replica process from the outside.

The traced run puts this directory on PYTHONPATH, which
``RuntimeManager.start()`` hands down to the replica processes.  When
BENCH_PROFILE_DIR is set, SIGUSR1 switches ``cProfile`` on, SIGUSR2
switches it off, and the stats are dumped when the interpreter exits,
which the replicas do cleanly on the manager's SIGTERM.  The benchmark
sends the two signals at the edges of its measured window, so start-up
imports and the idle wait for load are not in the profile.  Without
the variable this file does nothing.
"""

import os

_directory = os.environ.get("BENCH_PROFILE_DIR")
if _directory:
    import atexit
    import cProfile
    import signal

    _profiler = cProfile.Profile()

    def _dump() -> None:
        _profiler.disable()
        _profiler.dump_stats(os.path.join(_directory, f"{os.getpid()}.prof"))

    signal.signal(signal.SIGUSR1, lambda *_: _profiler.enable())
    signal.signal(signal.SIGUSR2, lambda *_: _profiler.disable())
    atexit.register(_dump)
