"""Perf-trajectory harness: timed kernels and the BENCH_protocol.json report.

The repository tracks its own performance the way it tracks numerical
results: a small set of named kernels is timed (best-of-N wall clock),
compared against the seed measurements and against the checked-in
baseline, and the outcome is written to ``BENCH_protocol.json`` at the
repo root so future PRs inherit a machine-readable trajectory.

Kernels
-------
``protocol_m64`` / ``protocol_m512``
    One full honest DLS-BL-NCP engagement (construction included) on
    the same instance family as ``benchmarks/test_scaling.py``:
    ``numpy.random.default_rng(5)`` uniform ``w`` in [1, 10], NCP-FE,
    ``z = 0.2``.
``allocation_m512_x100`` / ``payments_m512_x20``
    The closed-form allocation and payment kernels alone, m = 512,
    looped (100x / 20x) inside the timed region so one measurement is
    milliseconds rather than microseconds — a 25% regression gate on a
    30 microsecond kernel would trip on scheduler noise alone.
``allocation_batch_m512`` / ``payments_batch_m512``
    The same workloads as the two looped kernels — 100 allocation
    solves / 20 payment solves at m = 512 — executed as a single
    ``repro.kernels`` array pass over a ``(100, 512)`` / ``(20, 512)``
    grid.  Their ``SEED_TIMINGS`` entries equal the looped kernels'
    (the seed commit could only run that workload through the scalar
    loop), so their speedup column reads as "batch pass vs seed-era
    scalar loop, identical work".
``des_20k_events``
    Schedule-and-drain throughput of the event queue (20k events).
``sweep_surface_m512`` (and ``sweep_surface_m512_wN`` with --workers)
    The E29 reference strategyproofness sweep: a 24x12 utility surface
    on an m = 512 instance, executed through the sweep engine
    (:mod:`repro.sweep`) — serially, and sharded over ``N`` workers
    when ``--workers N`` is given.  The pair measures the sharding
    speedup on the machine at hand (see EXPERIMENTS.md E29).

Seed reference
--------------
``SEED_TIMINGS`` are measurements of the same kernels at the seed
commit (fec0be7, pre-``repro.perf``), taken on the same machine and
with the same best-of-N methodology as :func:`run_bench`.  They are the
denominator of the ``speedup_vs_seed`` column, not a regression gate —
the gate compares against the *checked-in* ``BENCH_protocol.json``.

Kernels added after the seed commit have no ``SEED_TIMINGS`` entry;
their first measurement is pinned in the report's ``auto_baselined``
map (see :func:`auto_baselines`), so every kernel — seed-era or new —
carries a trajectory entry and regression-gate coverage from its first
run onward.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

__all__ = [
    "SEED_TIMINGS",
    "SEED_COMMIT",
    "REPORT_NAME",
    "run_bench",
    "auto_baselines",
    "check_regression",
    "write_report",
    "repo_root",
    "main",
]

SEED_COMMIT = "fec0be7"
REPORT_NAME = "BENCH_protocol.json"

# Seed-commit wall-clock seconds (same machine/methodology as run_bench;
# the committed scaling benchmark recorded protocol m=64 at 0.0925 s).
# The looped kernels scale the seed's single-call measurement by the
# loop count (loop overhead is negligible at these sizes).
SEED_TIMINGS = {
    "protocol_m64": 0.08478,
    "protocol_m512": 4.63648,
    "allocation_m512_x100": 0.0029400,
    "payments_m512_x20": 0.0246800,
    "des_20k_events": 0.10828,
    # The batch kernels run the exact workload of the two looped
    # kernels above (100 / 20 solves at m = 512); at the seed commit the
    # only way to run it was the scalar loop, so that measurement is
    # their honest seed reference.
    "allocation_batch_m512": 0.0029400,
    "payments_batch_m512": 0.0246800,
}


def repo_root() -> Path:
    """Repository root: nearest ancestor holding pyproject.toml.

    Falls back to the current directory so the harness still runs (and
    writes its report locally) from an installed copy.
    """
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    return Path.cwd()


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _protocol_kernel(m: int):
    from repro.core.dls_bl_ncp import DLSBLNCP
    from repro.dlt.platform import NetworkKind

    rng = np.random.default_rng(5)
    w = rng.uniform(1.0, 10.0, m)
    return lambda: DLSBLNCP(w, NetworkKind.NCP_FE, 0.2).run()


def _allocation_kernel(m: int, loops: int):
    from repro.dlt.closed_form import allocate
    from repro.dlt.platform import BusNetwork, NetworkKind

    rng = np.random.default_rng(7)
    net = BusNetwork(tuple(rng.uniform(1.0, 10.0, m)), 0.2, NetworkKind.NCP_FE)

    def run() -> None:
        for _ in range(loops):
            allocate(net)

    return run


def _payments_kernel(m: int, loops: int):
    from repro.core.payments import payments as compute_payments
    from repro.dlt.platform import BusNetwork, NetworkKind

    rng = np.random.default_rng(7)
    net = BusNetwork(tuple(rng.uniform(1.0, 10.0, m)), 0.2, NetworkKind.NCP_FE)
    w_exec = net.w_array

    def run() -> None:
        for _ in range(loops):
            compute_payments(net, w_exec)

    return run


def _allocation_batch_kernel(m: int, rows: int):
    from repro.dlt.platform import NetworkKind
    from repro.kernels import allocate_batch

    rng = np.random.default_rng(7)
    W = rng.uniform(1.0, 10.0, (rows, m))
    return lambda: allocate_batch(W, 0.2, NetworkKind.NCP_FE)


def _payments_batch_kernel(m: int, rows: int):
    from repro.dlt.platform import NetworkKind
    from repro.kernels import payments_batch

    rng = np.random.default_rng(7)
    W = rng.uniform(1.0, 10.0, (rows, m))
    return lambda: payments_batch(W, 0.2, NetworkKind.NCP_FE, W)


def _sweep_surface_kernel(m: int, workers: int):
    from repro.analysis.strategyproofness import surface_plan
    from repro.dlt.platform import BusNetwork, NetworkKind
    from repro.sweep import RunOptions, run_plan

    rng = np.random.default_rng(5)
    net = BusNetwork(tuple(rng.uniform(1.0, 10.0, m)), 0.2, NetworkKind.NCP_FE)
    plan = surface_plan(net, 1,
                        list(np.linspace(0.5, 1.5, 24)),
                        list(np.linspace(1.0, 2.0, 12)))
    options = RunOptions(workers=workers)
    return lambda: run_plan(plan, options)


def _contention_kernel(k: int, m: int):
    from repro.dlt.platform import NetworkKind
    from repro.protocol.arbiter import BusArbiter, EngagementJob

    rng = np.random.default_rng(5)
    jobs = tuple(
        EngagementJob(engagement_id=f"E{j + 1}",
                      w=tuple(rng.uniform(1.0, 10.0, m)),
                      kind=NetworkKind.NCP_FE)
        for j in range(k))
    return lambda: BusArbiter(0.2, jobs, policy="rr").run()


def _des_kernel(events: int):
    from repro.network.events import EventQueue

    def run() -> None:
        q = EventQueue()
        sink = [].append
        for i in range(events):
            q.schedule(float(i % 97), lambda: sink(1), label="bench")
        q.run()

    return run


def run_bench(*, quick: bool = False, options=None) -> dict[str, float]:
    """Time every kernel; returns {kernel: best-of-N seconds}.

    ``quick`` keeps the kernel sizes (so numbers stay comparable with
    the checked-in baseline) but halves the repetitions — the CI smoke
    configuration.  *options* (a :class:`repro.sweep.RunOptions`)
    requests sharding: ``RunOptions(workers=N)`` adds a sharded twin of
    the sweep kernel (``sweep_surface_m512_wN``) timed over an N-worker
    pool.
    """
    from repro.sweep import RunOptions

    workers = (options or RunOptions()).workers
    # The cheap kernels get generous best-of rounds — they cost
    # milliseconds each, and the regression gate needs the minimum to
    # survive ambient machine noise.
    timings = {
        "protocol_m64": _best_of(_protocol_kernel(64), 4 if quick else 6),
        "protocol_m512": _best_of(_protocol_kernel(512), 2 if quick else 3),
        "allocation_m512_x100": _best_of(_allocation_kernel(512, 100),
                                         8 if quick else 12),
        "payments_m512_x20": _best_of(_payments_kernel(512, 20),
                                      8 if quick else 12),
        "allocation_batch_m512": _best_of(_allocation_batch_kernel(512, 100),
                                          8 if quick else 12),
        "payments_batch_m512": _best_of(_payments_batch_kernel(512, 20),
                                        8 if quick else 12),
        "des_20k_events": _best_of(_des_kernel(20_000), 4 if quick else 5),
        # 4 engagements round-robin-multiplexed over one bus: the
        # arbiter's scheduling overhead on top of 4 protocol_m64-sized
        # runs.  Added after the seed commit, so it is auto-baselined
        # (first measurement pinned in the report) rather than listed
        # in SEED_TIMINGS.
        "contention_k4_m64": _best_of(_contention_kernel(4, 64),
                                      2 if quick else 4),
        "sweep_surface_m512": _best_of(_sweep_surface_kernel(512, 1),
                                       2 if quick else 3),
    }
    if workers > 1:
        timings[f"sweep_surface_m512_w{workers}"] = _best_of(
            _sweep_surface_kernel(512, workers), 2 if quick else 3)
    return timings


def check_regression(
    head: dict[str, float],
    baseline: dict[str, float],
    *,
    tolerance: float = 0.25,
) -> list[str]:
    """Kernels slower than ``(1 + tolerance) *`` the baseline timing.

    Only kernels present in both mappings are compared, so adding a new
    kernel never fails the gate on its first run.
    """
    failures = []
    for name, base in baseline.items():
        now = head.get(name)
        if now is None or base <= 0:
            continue
        if now > base * (1.0 + tolerance):
            failures.append(
                f"{name}: {now:.6f}s vs baseline {base:.6f}s "
                f"(+{(now / base - 1.0) * 100.0:.1f}%, limit "
                f"+{tolerance * 100.0:.0f}%)")
    return failures


def auto_baselines(head: dict[str, float],
                   prior: dict | None = None) -> dict[str, float]:
    """Reference timings for kernels the seed commit never measured.

    A kernel added after the seed has no ``SEED_TIMINGS`` entry, so
    without care it shows up in ``head`` with no trajectory — the
    ``sweep_surface_m512`` gap.  The fix is self-baselining: the first
    measurement of a new kernel is *pinned* as its reference, persisted
    in the report's ``auto_baselined`` map, and every later run reports
    speedup against that pin (exactly how ``SEED_TIMINGS`` anchors the
    original kernels).  Precedence: an already-pinned value wins over
    the prior head (pins must not drift), which wins over the current
    measurement (only brand-new kernels pin from it).
    """
    prior = prior or {}
    pinned: dict[str, float] = {
        k: v for k, v in prior.get("head", {}).items()
        if k not in SEED_TIMINGS}
    pinned.update(prior.get("auto_baselined", {}))
    for name, timing in head.items():
        if name not in SEED_TIMINGS and name not in pinned:
            pinned[name] = round(timing, 7)
    return pinned


def write_report(path: Path, head: dict[str, float], *, quick: bool,
                 prior: dict | None = None) -> dict:
    """Compose and write the BENCH_protocol.json document; returns it.

    *prior* is the previously checked-in report (when one exists); it
    carries the pinned baselines of kernels added after the seed commit,
    so every ``head`` entry — seed-era or not — gets a
    ``speedup_vs_seed`` trajectory entry.
    """
    pinned = auto_baselines(head, prior)
    reference = {**SEED_TIMINGS, **pinned}
    report = {
        "schema": 1,
        "units": "seconds (best-of-N wall clock)",
        "quick": quick,
        "seed_commit": SEED_COMMIT,
        "seed": SEED_TIMINGS,
        "auto_baselined": pinned,
        "head": {k: round(v, 7) for k, v in head.items()},
        "speedup_vs_seed": {
            k: round(reference[k] / v, 2)
            for k, v in head.items()
            if k in reference and v > 0
        },
    }
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv: list[str] | None = None) -> int:
    """Entry point shared by ``repro bench`` and ``benchmarks/harness.py``.

    Runs the kernels, prints a table, compares against the checked-in
    ``BENCH_protocol.json`` (when one exists) and rewrites it.  Exits
    non-zero iff a kernel regressed beyond the tolerance.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="time the protocol/allocation/payments/DES kernels "
                    "and refresh BENCH_protocol.json")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: same kernel sizes, fewer reps")
    parser.add_argument("--no-check", action="store_true",
                        help="skip the regression gate against the "
                             "checked-in baseline")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed slowdown vs baseline (default 0.25)")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"report path (default <repo>/{REPORT_NAME})")
    parser.add_argument("--workers", type=int, default=1,
                        help="also time the sweep kernel sharded over N "
                             "workers (default 1: serial only)")
    args = parser.parse_args(argv)

    out_path = args.output or repo_root() / REPORT_NAME
    prior: dict = {}
    if out_path.exists():
        try:
            prior = json.loads(out_path.read_text())
        except (ValueError, OSError):
            prior = {}
    baseline: dict[str, float] = prior.get("head", {})

    workers = max(1, args.workers)
    print(f"sweep workers: {workers}"
          + ("" if workers == 1 else
             f" (cpu cores available: {os.cpu_count()})"))
    from repro.sweep import RunOptions

    head = run_bench(quick=args.quick, options=RunOptions(workers=workers))
    report = write_report(out_path, head, quick=args.quick, prior=prior)

    width = max(len(k) for k in head)
    print(f"{'kernel':<{width}}  {'head (s)':>12}  {'seed (s)':>12}  {'speedup':>8}")
    for name, t in head.items():
        seed = SEED_TIMINGS.get(name, report["auto_baselined"].get(name))
        seed_s = f"{seed:.6f}" if seed is not None else "-"
        speed = report["speedup_vs_seed"].get(name)
        speed_s = f"{speed:.2f}x" if speed is not None else "-"
        print(f"{name:<{width}}  {t:>12.6f}  {seed_s:>12}  {speed_s:>8}")
    # A speedup below 1.0 means the kernel is now slower than its seed
    # (or first-pinned) reference — not necessarily a gate failure (the
    # gate compares against the previous head), but a trajectory debt
    # that should be called out, not buried in a table column.
    for name, speed in report["speedup_vs_seed"].items():
        if speed < 1.0:
            print(f"WARN: {name} speedup_vs_seed={speed:.2f}x — slower "
                  f"than its reference timing")
    print(f"report: {out_path}")

    if not args.no_check and baseline:
        failures = check_regression(head, baseline, tolerance=args.tolerance)
        if failures:
            print("PERFORMANCE REGRESSION:")
            for f in failures:
                print(f"  {f}")
            return 1
        print(f"regression gate: ok (+{args.tolerance * 100:.0f}% tolerance, "
              f"{len(baseline)} kernels)")
    return 0
