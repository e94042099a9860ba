#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engage_m512 --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``engage_m512`` (honest engagements at m = 512,
the O(m^2) Bidding/Payments path), ``market_churn`` (a contended,
churning market of 3-processor engagements, the fixed per-engagement
cost path) or ``served_mix`` (a small-request mix served open loop by a
2-daemon TCP fleet, the service path).  Inputs are generated from
``--seed``; each workload measures for ``--seconds``.

``--trace 0`` prints the end-to-end metrics, timed with nothing
wrapped; the CPU-bound timings are normalized to a reference machine
speed (see ``calibrate.py``) and printed raw beside it.  ``--trace 1`` repeats the untraced pass, then runs the same
inputs with spans and counters recorded around the package's public
calls, and prints the per-layer metrics and the tracing overhead; the
traced digests must equal the untraced ones.  Either way every output
is checked, human-readable lines come first, and the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 27, "failed": 0, "metrics": {...}}

The package is imported from ``src/`` next to this directory; without
it the command exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics (every workload reports all of them): name -> unit.
#: Latency percentiles are printed in the report but not listed here:
#: they are not steady enough on a shared machine to gate on.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> unit.  A layer that a
#: workload never enters reads 0 there.
PER_LAYER = {
    "protocol.bidding_ms": "ms",
    "protocol.bidding.self_ms": "ms",
    "protocol.payments_ms": "ms",
    "protocol.payments.self_ms": "ms",
    "protocol.allocating_ms": "ms",
    "protocol.processing_ms": "ms",
    "protocol.settle_ms": "ms",
    "protocol.open_ms": "ms",
    "protocol.arbiter_ms": "ms",
    "protocol.arbiter.self_ms": "ms",
    "core.build_ms": "ms",
    "api.execute_ms.engagement": "ms",
    "api.execute_ms.multi-engagement": "ms",
    "api.execute_ms.sweep": "ms",
    "api.execute_ms.market": "ms",
    "api.parse_ms": "ms",
    "api.encode_ms": "ms",
    "market.overhead_ms": "ms",
    "sweep.run_plan_ms": "ms",
    "crypto.sign_ms": "ms",
    "crypto.verify_ms": "ms",
    "crypto.canonical_ms": "ms",
    "kernels.ms": "ms",
    "agents.observe_bid_calls": "count",
    "network.messages": "count",
    "network.bytes": "bytes",
    "crypto.sign_calls": "count",
    "crypto.verify_calls": "count",
    "crypto.canonical_encodes": "count",
    "kernels.calls": "count",
    "des.events_scheduled": "count",
    "perf.memo_hits": "count",
    "perf.memo_misses": "count",
    "perf.sigcache_hits": "count",
    "perf.sigcache_misses": "count",
    "perf.memo_hit_ratio": "share",
    "perf.sigcache_hit_ratio": "share",
    "service.rtt_ms": "ms",
    "service.ping_rtt_ms": "ms",
    "service.daemon_latency_p50_ms": "ms",
    "service.overhead_ms": "ms",
    "service.overhead_ms.engagement": "ms",
    "service.overhead_ms.sweep": "ms",
    "service.overhead_ms.multi-engagement": "ms",
    "service.cache_hit_rtt_ms": "ms",
    "service.cache_hit_ratio": "share",
    "service.failed_or_retried": "count",
    "service.generator_lag_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

WORKLOAD_NAMES = ("engage_m512", "market_churn", "served_mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error(f"--seconds must be > 0; got {args.seconds}")
    return args


def result_line(report, trace: bool) -> dict:
    """The JSON result object (the last line of standard output)."""
    attempted = max(1, report.attempted)
    if trace:
        metrics = {name: {"value": float(report.layers.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = dict(report.e2e)
        values["ok_share"] = (1.0 - report.failed / attempted, attempted)
        metrics = {name: {"value": float(values[name][0]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": report.failed == 0 and report.valid,
            "attempted": attempted, "failed": report.failed,
            "metrics": metrics}


def print_report(args, report) -> None:
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for line in report.lines:
        print(line)
    for problem in report.problems:
        print(f"FAILED {problem}")
    attempted = max(1, report.attempted)
    print(f"error_share {report.failed / attempted:.6f} share "
          f"(n={attempted}: {report.failed} failed)")
    if args.trace:
        for name, unit in PER_LAYER.items():
            if name in report.layers:
                print(f"{name} {report.layers[name]:.6g} {unit}")
            else:
                print(f"{name} 0 {unit} (layer not entered)")
    else:
        for name, (value, samples) in report.e2e.items():
            print(f"{name} {value:.6g} {END_TO_END[name]} (n={samples})")


def _exit_on_sigterm(signum, frame) -> None:
    # Unwind through the ``finally`` blocks, which stop the fleet.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: no package source at src/repro; run from the "
              "root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.probe_setup:
        workloads.prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    report = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace))
    print_report(args, report)
    print(json.dumps(result_line(report, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
