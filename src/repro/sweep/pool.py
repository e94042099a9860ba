"""The fork pool: reusable fork workers with crash recovery.

One implementation serves both process-pool consumers: the sharded
sweep runner (:func:`repro.sweep.runner.run_plan`) and the engagement
daemon, which keeps one :class:`WarmPool` alive across requests.  With
``warm=True`` workers are forked eagerly at construction (and pinged,
so the first real request never pays process start-up) and reused
until they die or the owner shuts down — reuse is what makes the
per-worker caches in :mod:`repro.service.worker` accumulate across
requests.  ``warm=False`` forks on first submit instead.

Crash recovery is generation-counted: a worker dying (``os._exit``,
OOM kill, segfault) breaks the whole ``ProcessPoolExecutor``, failing
every in-flight future with ``BrokenProcessPool``.  Each submitter
remembers the generation it submitted under and calls
:meth:`rebuild` with it; only the *first* caller of a generation
actually rebuilds (the rest see the bumped counter and just resubmit),
so N concurrent victims of one crash cost one rebuild, not N.

Workers never outlive their owner: each one watches its parent pid and
exits as soon as it is re-parented, so a SIGKILLed daemon or sweep
(which runs no shutdown code) leaves no orphaned workers behind.

This module knows nothing about sockets.  Listeners a forked child
must not keep are closed by the fork hook that
:mod:`repro.service.tcp` registers for every listener it binds.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor

__all__ = ["WarmPool"]

#: Seconds between a worker's checks that its parent is still alive.
PARENT_POLL_S = 0.2


def _mp_context():
    """Fork where available (cheap respawn; inherits registrations)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover — non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _init_worker(parent_pid: int) -> None:
    """Fork-worker initializer: exit when the forking process dies.

    A parent-pid watch rather than ``PR_SET_PDEATHSIG``: the kernel
    signal fires when the *thread* that forked the worker exits, and
    executors fork from whichever thread submits first.
    """
    threading.Thread(target=_exit_with_parent, args=(parent_pid,),
                     name="repro-parent-watch", daemon=True).start()


def _exit_with_parent(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(PARENT_POLL_S)
    os._exit(0)


def _ping() -> bool:
    """No-op job used to spin workers up eagerly (pool warm-up)."""
    return True


def _executor(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, mp_context=_mp_context(),
                               initializer=_init_worker,
                               initargs=(os.getpid(),))


class WarmPool:
    """A rebuildable :class:`ProcessPoolExecutor`, optionally kept warm."""

    def __init__(self, workers: int = 1, *, warm: bool = True) -> None:
        self.workers = max(1, int(workers))
        self.generation = 0
        self.rebuilds = 0
        self._lock = threading.Lock()
        self._executor = _executor(self.workers)
        if warm:
            self.warm_up()

    def warm_up(self) -> None:
        """Fork every worker now and wait until each answers a ping."""
        pings = [self._executor.submit(_ping) for _ in range(self.workers)]
        for ping in pings:
            ping.result()

    def submit(self, fn, *args) -> tuple[int, Future]:
        """Submit a job; returns ``(generation, future)``.

        The caller must keep the generation: on ``BrokenProcessPool``
        it is the ticket for :meth:`rebuild`.
        """
        with self._lock:
            return self.generation, self._executor.submit(fn, *args)

    def rebuild(self, seen_generation: int) -> int:
        """Replace a broken executor (idempotent per generation).

        Callers race here after a crash; whoever arrives first with the
        current generation swaps the executor and bumps the counter,
        everyone else returns immediately.  Returns the live generation.
        """
        with self._lock:
            if seen_generation == self.generation:
                old = self._executor
                self._executor = _executor(self.workers)
                self.generation += 1
                self.rebuilds += 1
                try:
                    # A broken pool cannot be joined; just detach it.
                    old.shutdown(wait=False, cancel_futures=True)
                except Exception:  # pragma: no cover — best-effort cleanup
                    pass
            return self.generation

    def make_solo(self) -> ProcessPoolExecutor:
        """A fresh single-worker executor for quarantined jobs.

        Not tracked by the pool: the caller owns (and must shut down)
        the executor, and a job dying on it cannot break the shared
        workers.
        """
        return _executor(1)

    def shutdown(self, *, wait: bool = True) -> None:
        with self._lock:
            self._executor.shutdown(wait=wait, cancel_futures=True)
