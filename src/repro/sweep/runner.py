"""Serial and sharded execution of sweep plans.

The execution contract, in order of precedence:

1. **Determinism** — the merged record stream of a sharded run is
   byte-identical to the serial loop over the same plan.  This holds by
   construction: scenarios are pure functions of their spec (see
   :mod:`repro.sweep.tasks`), chunks carry their scenario indices, and
   the merge reorders by index before anything is returned.
2. **Utilization** — chunks are all enqueued up front and workers pull
   the next chunk as they finish (work stealing by competition), so a
   straggler chunk never idles the rest of the pool.  The default chunk
   size targets several chunks per worker to keep the tail short while
   amortizing IPC.
3. **Fault tolerance** — a worker process dying (OOM kill, hard crash)
   breaks the pool, not the sweep: the runner rebuilds its
   :class:`~repro.sweep.pool.WarmPool` (the same fork pool the daemon
   serves from) and resubmits only the unfinished chunks, up to
   ``max_restarts`` times.
   Scenario-level *exceptions* are not retried — they are deterministic
   failures, captured in-worker and re-raised after the merge as a
   :class:`SweepError` naming the lowest failing scenario (the same one
   the serial loop trips on first).

``workers <= 1`` bypasses the pool entirely: the serial path is the
reference implementation the differential suite compares against, and
the default for every consumer.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.sweep.aggregate import PhaseTotals, TrafficTotals, aggregate_records
from repro.sweep.pool import WarmPool
from repro.sweep.spec import ScenarioSpec, SweepPlan, digest_records
from repro.sweep.tasks import iter_task_groups, run_scenario, try_run_batch

__all__ = ["SweepError", "RunOptions", "ShardStats", "SweepResult", "run_plan"]


class SweepError(RuntimeError):
    """A scenario failed (deterministically) or the pool died for good."""


@dataclass(frozen=True)
class RunOptions:
    """Execution options for :func:`run_plan` (and ``run_bench``).

    One value instead of a keyword sprawl:
    ``run_plan(plan, options=RunOptions(workers=4))``.  The fields:

    * ``workers`` — pool size; ``<= 1`` runs the serial reference loop.
    * ``chunk_size`` — scenarios per shard (default: ~4 chunks/worker).
    * ``shard_order`` — chunk submission permutation (differential
      tests use it to prove order-invariance).
    * ``max_restarts`` — tolerated pool rebuilds after worker deaths.
    * ``progress`` — ``progress(done, total)`` parent-side callback
      (not serialized; excluded from equality by design of use, carried
      here only as plumbing).
    * ``batch`` — route same-task spec groups through their registered
      batch executors (:data:`repro.sweep.tasks.BATCH_TASKS`), solving a
      whole chunk in one ``repro.kernels`` array pass.  Records are
      byte-identical either way (differential-tested); ``False`` forces
      the scalar per-scenario reference path everywhere.
    """

    workers: int = 1
    chunk_size: int | None = None
    shard_order: Sequence[int] | None = None
    max_restarts: int = 2
    progress: Callable[[int, int], None] | None = None
    batch: bool = True



@dataclass(frozen=True)
class ShardStats:
    """Telemetry for one executed chunk (a shard of the plan)."""

    shard: int
    start: int                  # first scenario index in the chunk
    scenarios: int
    wall_time: float            # worker-side seconds (informational)
    traffic: TrafficTotals
    phases: PhaseTotals

    def to_dict(self) -> dict:
        return {"shard": self.shard, "start": self.start,
                "scenarios": self.scenarios,
                "wall_time": round(self.wall_time, 6),
                "traffic": self.traffic.to_dict(),
                "phases": self.phases.to_dict()}


@dataclass(frozen=True)
class SweepResult:
    """Merged outcome of a sweep run.

    ``records`` is the ordered record stream — the only part covered by
    the determinism contract and :meth:`digest`.  Everything else
    (shard stats, wall times, restart count) is operational telemetry.
    """

    records: tuple[Any, ...]
    shards: tuple[ShardStats, ...]
    workers: int
    restarts: int = 0
    traffic: TrafficTotals = field(default_factory=TrafficTotals)
    phases: PhaseTotals = field(default_factory=PhaseTotals)

    def digest(self) -> str:
        """Canonical-JSON SHA-256 of the ordered record stream."""
        return digest_records(self.records)

    def to_dict(self) -> dict:
        return {
            "records": list(self.records),
            "digest": self.digest(),
            "workers": self.workers,
            "restarts": self.restarts,
            "shards": [s.to_dict() for s in self.shards],
            "traffic": self.traffic.to_dict(),
            "phases": self.phases.to_dict(),
        }


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

def _run_chunk(payload: tuple[int, Sequence[ScenarioSpec], bool]
               ) -> tuple[int, list[tuple[int, bool, Any]], dict]:
    """Execute one chunk inside a worker process.

    Returns ``(chunk_id, [(index, ok, record_or_error), ...], stats)``.
    Exceptions are captured per scenario so one bad spec cannot take the
    worker (and the other chunks queued on it) down with it.  With
    ``batch`` on, each same-task run of the chunk first tries its batch
    executor (one array pass); a group whose executor raises is re-run
    scenario-by-scenario so error attribution is identical to the
    scalar path.
    """
    chunk_id, specs, batch = payload
    t0 = time.perf_counter()
    results: list[tuple[int, bool, Any]] = []
    for _, group in iter_task_groups(specs):
        batch_records = try_run_batch(group) if batch else None
        if batch_records is not None:
            results.extend((spec.index, True, rec)
                           for spec, rec in zip(group, batch_records))
            continue
        for spec in group:
            try:
                results.append((spec.index, True, run_scenario(spec)))
            except Exception as exc:  # noqa: BLE001 — shipped to the parent
                results.append((spec.index, False,
                                {"task": spec.task, "key": spec.key,
                                 "error": f"{type(exc).__name__}: {exc}"}))
    traffic, phases = aggregate_records(
        rec for _, ok, rec in results if ok)
    stats = {"start": specs[0].index if specs else 0,
             "scenarios": len(specs),
             "wall_time": time.perf_counter() - t0,
             "traffic": traffic.to_dict(),
             "phases": phases.to_dict()}
    return chunk_id, results, stats


def _chunk(plan: SweepPlan, chunk_size: int) -> list[tuple[int, tuple]]:
    specs = plan.scenarios
    return [(cid, specs[lo:lo + chunk_size])
            for cid, lo in enumerate(range(0, len(specs), chunk_size))]


# ---------------------------------------------------------------------------
# driver side
# ---------------------------------------------------------------------------

def _raise_first_failure(indexed: dict[int, tuple[bool, Any]]) -> None:
    failures = sorted(i for i, (ok, _) in indexed.items() if not ok)
    if failures:
        first = indexed[failures[0]][1]
        raise SweepError(
            f"scenario {failures[0]} ({first['task']}) failed: "
            f"{first['error']}" + (
                f" (+{len(failures) - 1} more)" if len(failures) > 1 else ""))


def _run_serial(plan: SweepPlan,
                progress: Callable[[int, int], None] | None,
                batch: bool = True) -> SweepResult:
    total = len(plan)
    records = []
    done = 0
    for _, group in iter_task_groups(tuple(plan)):
        batch_records = try_run_batch(group) if batch else None
        if batch_records is not None:
            for rec in batch_records:
                records.append(rec)
                done += 1
                if progress is not None:
                    progress(done, total)
            continue
        for spec in group:
            try:
                records.append(run_scenario(spec))
            except Exception as exc:
                raise SweepError(
                    f"scenario {spec.index} ({spec.task}) failed: "
                    f"{type(exc).__name__}: {exc}") from exc
            done += 1
            if progress is not None:
                progress(done, total)
    traffic, phases = aggregate_records(records)
    shard = ShardStats(shard=0, start=0, scenarios=total, wall_time=0.0,
                       traffic=traffic, phases=phases)
    return SweepResult(records=tuple(records), shards=(shard,), workers=1,
                       traffic=traffic, phases=phases)


def run_plan(plan: SweepPlan,
             options: RunOptions | None = None) -> SweepResult:
    """Execute *plan* and return the ordered :class:`SweepResult`.

    Execution options travel as one value,
    ``run_plan(plan, RunOptions(workers=4, ...))`` — see
    :class:`RunOptions` for every knob.
    """
    options = options or RunOptions()
    progress = options.progress
    chunk_size = options.chunk_size
    shard_order = options.shard_order
    max_restarts = options.max_restarts

    batch = bool(options.batch)
    workers = int(options.workers)
    if workers <= 1:
        return _run_serial(plan, progress, batch)
    total = len(plan)
    if total == 0:
        return SweepResult(records=(), shards=(), workers=workers)

    if chunk_size is None:
        chunk_size = max(1, -(-total // (workers * 4)))
    chunks = _chunk(plan, chunk_size)
    if shard_order is not None:
        if sorted(shard_order) != list(range(len(chunks))):
            raise ValueError(
                f"shard_order must permute range({len(chunks)}); "
                f"got {list(shard_order)!r}")
        chunks = [chunks[i] for i in shard_order]

    pending = {cid: payload for cid, payload in chunks}
    indexed: dict[int, tuple[bool, Any]] = {}
    shard_stats: dict[int, ShardStats] = {}
    done_scenarios = 0
    # Forked lazily on the first submit, so workers inherit every task
    # registered before run_plan was called.
    pool = WarmPool(min(workers, len(chunks)), warm=False)
    broken = False
    try:
        while pending:
            not_done = set()
            for cid, specs in pending.items():
                generation, fut = pool.submit(_run_chunk, (cid, specs, batch))
                not_done.add(fut)
            broken = False
            while not_done and not broken:
                finished, not_done = wait(not_done,
                                          return_when=FIRST_COMPLETED)
                for fut in finished:
                    try:
                        chunk_id, results, stats = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        continue
                    pending.pop(chunk_id)
                    for index, ok, record in results:
                        indexed[index] = (ok, record)
                    shard_stats[chunk_id] = ShardStats(
                        shard=chunk_id,
                        start=stats["start"],
                        scenarios=stats["scenarios"],
                        wall_time=stats["wall_time"],
                        traffic=TrafficTotals.from_dict(stats["traffic"]),
                        phases=PhaseTotals.from_dict(stats["phases"]))
                    done_scenarios += stats["scenarios"]
                    if progress is not None:
                        progress(done_scenarios, total)
            if pending:
                # Worker death broke the pool mid-sweep: rebuild and
                # rerun only the chunks that never reported back.
                if pool.rebuilds >= max_restarts:
                    raise SweepError(
                        f"worker pool died {pool.rebuilds + 1} times; "
                        f"{len(pending)} chunk(s) unfinished "
                        f"(chunks {sorted(pending)})")
                pool.rebuild(generation)
    finally:
        # A healthy pool is drained synchronously so its management
        # thread and pipes are gone before interpreter exit; a broken
        # pool cannot be joined — abandon it.
        pool.shutdown(wait=not broken)

    _raise_first_failure(indexed)
    records = tuple(indexed[i][1] for i in range(total))
    traffic = TrafficTotals()
    phases = PhaseTotals()
    shards = tuple(shard_stats[cid] for cid in sorted(shard_stats))
    for shard in shards:
        traffic.merge(shard.traffic)
        phases.merge(shard.phases)
    return SweepResult(records=records, shards=shards, workers=workers,
                       restarts=pool.rebuilds, traffic=traffic, phases=phases)
