"""E29 — serial vs sharded wall clock on the reference utility surface.

Measures ``repro.sweep.run_plan`` over the same reference
strategyproofness surface the perf harness times (m=512 market, 24x12
bid/exec-factor grid = 288 scenarios), at a ladder of worker counts,
and verifies the determinism contract along the way: every sharded run
must merge to the serial digest.

Run with::

    PYTHONPATH=src python benchmarks/sweep_e29.py [--workers 1 2 4 8]

Interpreting the numbers: process-pool speedup is bounded by the
*physical* cores available — ``os.cpu_count()`` is printed alongside
the table because on a 1-core container every worker count collapses
to time-slicing the same core and the pool only adds fork + IPC
overhead.  The per-scenario work here (~1 ms of payment algebra) is
also near the floor where chunk IPC amortizes; larger markets or
protocol-task sweeps shard more favourably.
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

from repro.analysis.strategyproofness import surface_plan
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.sweep import RunOptions, run_plan


def reference_plan(m: int = 512):
    rng = np.random.default_rng(5)
    net = BusNetwork(tuple(rng.uniform(1.0, 10.0, m)), 0.2, NetworkKind.NCP_FE)
    return surface_plan(net, 1,
                        list(np.linspace(0.5, 1.5, 24)),
                        list(np.linspace(1.0, 2.0, 12)))


def time_run(plan, workers: int, repeats: int = 3):
    best, digest = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_plan(plan, RunOptions(workers=workers))
        best = min(best, time.perf_counter() - t0)
        digest = result.digest()
    return best, digest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4, 8])
    ap.add_argument("--m", type=int, default=512)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)

    plan = reference_plan(args.m)
    print(f"E29: reference surface, m={args.m}, {len(plan)} scenarios; "
          f"cpu cores available: {os.cpu_count()}")

    serial_time, serial_digest = time_run(plan, 1, args.repeats)
    print(f"{'workers':>8} {'wall (s)':>10} {'speedup':>8}  digest")
    print(f"{1:>8} {serial_time:>10.4f} {1.0:>8.2f}x  {serial_digest[:16]}")
    for workers in args.workers:
        if workers <= 1:
            continue
        wall, digest = time_run(plan, workers, args.repeats)
        if digest != serial_digest:
            print(f"FAIL: workers={workers} digest {digest[:16]} != serial")
            return 1
        print(f"{workers:>8} {wall:>10.4f} {serial_time / wall:>8.2f}x"
              f"  {digest[:16]}")
    print("all digests identical to serial (determinism contract holds)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
