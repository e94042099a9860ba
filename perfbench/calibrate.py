"""Machine-speed calibration for the benchmark's CPU-bound timings.

The benchmark runs on shared virtual machines whose CPUs drift in speed
by up to 2x over seconds to minutes (neighbours on the host), far more
than a regression gate can tolerate.  So each timed unit of the
in-process workloads (``engage_m512``, ``market_churn``) and each
set-up probe is bracketed by a fixed reference computation that imports
nothing from the package: pure-Python dict building, JSON encoding,
sorting and HMAC-SHA256, the same kinds of work the protocol does.  The
*normalized* time is the measured time scaled by how much slower the
CPU was than the reference speed at that moment::

    normalized = measured * REFERENCE_MS / calibration_ms

A change to the package cannot move the calibration, so a slower
program still reads slower; a slower machine no longer does.  The
report prints the raw figures beside the normalized ones.

The fleet set-up of ``served_mix`` is normalized the same way.  Its
served latency is not: it is mostly hand-offs between threads and
processes, which did not track the calibration in trials, so it is
reported raw and not gated.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import statistics
import time

#: What one calibration takes at the reference speed (ms).  Normalized
#: times read as if the machine ran the calibration this fast.
REFERENCE_MS = 7.5
REPEATS = 3


def _reference_work() -> int:
    table = {f"P{i}": {"bid": i * 0.5, "w": [i, i + 1], "ok": True}
             for i in range(3000)}
    wire = json.dumps(table, sort_keys=True).encode()
    macs = [hmac.new(b"calibration", wire[i * 100:(i + 1) * 100],
                     hashlib.sha256).digest() for i in range(200)]
    ranked = sorted(table.items(), key=lambda kv: -kv[1]["bid"])
    return len(ranked) + len(macs)


def calibration_ms() -> float:
    """Fastest of a few runs of the reference work, in ms (the fastest
    run is the one least disturbed by interrupts)."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return 1000.0 * best


def speed_factor(samples_ms) -> float:
    """``REFERENCE_MS / calibration``: multiply a measured time by it."""
    return REFERENCE_MS / statistics.median(samples_ms)

