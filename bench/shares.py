"""Self time by package, from ``cProfile`` dumps of a traced run.

Python-level self time goes to the package the function's file lives
in.  Time inside C functions and built-ins goes to the package of the
Python function that called them (``json``'s C encoder counts as json,
``hashlib`` called from ``repro/crypto`` as crypto), except socket
calls, which are their own bucket, and the selector's poll, which is
idle time, not work.
"""

from __future__ import annotations

import pstats

#: Every bucket a share is reported for, on either tier.
PACKAGES = (
    "protocols", "core", "crypto", "types", "net", "sync", "runtime",
    "obs", "app", "codec", "transport", "host", "json", "asyncio",
    "socket", "other", "idle",
)

_REPRO = {
    "rt_net/codec.py": "codec",
    "rt_net/transport.py": "transport",
    "rt_net/replica_proc.py": "host",
}
_STDLIB = {
    "json": "json",
    "asyncio": "asyncio",
    "selectors.py": "asyncio",
    "hmac.py": "crypto",
    "hashlib.py": "crypto",
    "socket.py": "socket",
}


def _package(filename: str) -> str:
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        inside = path.rsplit("/repro/", 1)[1]
        if inside in _REPRO:
            return _REPRO[inside]
        top = inside.split("/", 1)[0]
        return top if top in PACKAGES else "other"
    parts = path.split("/")
    for part in parts[-2:]:
        if part in _STDLIB:
            return _STDLIB[part]
    return "other"


def package_shares(profile_paths) -> dict:
    """``{package: share of profiled time}``; the shares sum to 1."""
    totals = dict.fromkeys(PACKAGES, 0.0)
    for path in profile_paths:
        stats = pstats.Stats(str(path)).stats
        for (filename, _line, name), (_cc, _nc, self_time, _ct, callers) \
                in stats.items():
            if filename != "~":
                totals[_package(filename)] += self_time
            elif "poll" in name and "select" in name:
                totals["idle"] += self_time
            elif "socket" in name:
                totals["socket"] += self_time
            elif not callers:
                totals["other"] += self_time
            else:
                # A built-in's self time, split over its callers.
                for (caller_file, _l, _n), (_c, _n2, caller_tt, _ct2) \
                        in callers.items():
                    bucket = (
                        "other" if caller_file == "~" else _package(caller_file)
                    )
                    totals[bucket] += caller_tt
    whole = sum(totals.values())
    if whole <= 0:
        raise ValueError("the profile recorded no time")
    return {package: value / whole for package, value in totals.items()}
