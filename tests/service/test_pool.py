"""Pool workers never outlive the process that forked them.

A SIGKILLed ``repro serve`` or sweep runs no shutdown code, so nothing
joins its forked ``WarmPool`` workers: without a guard they are
re-parented to init and keep running.  Each worker must notice the
death and exit.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.service import LocalFleet

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="walks /proc to find the workers")


def _stat(pid: int) -> tuple[str, int] | None:
    """``(state, ppid)`` of a live process, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def _children(pid: int) -> list[int]:
    return [int(entry) for entry in os.listdir("/proc") if entry.isdigit()
            and (_stat(int(entry)) or ("", 0))[1] == pid]


def _running(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"  # a zombie has exited


@pytest.mark.slow
def test_sigkilled_daemon_leaves_no_orphaned_worker():
    with LocalFleet(1, workers=1, transport="unix") as fleet:
        daemon = fleet.processes[0]
        workers = _children(daemon.pid)
        assert workers, "the daemon forked no pool worker"
        fleet.kill(0, signal.SIGKILL)
        daemon.wait(timeout=10)
        deadline = time.monotonic() + 5.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if _running(pid)]
        for pid in orphans:  # never leak them, even when the test fails
            os.kill(pid, signal.SIGKILL)
        assert not orphans, f"workers {orphans} outlived their daemon"


SRC = Path(__file__).resolve().parents[2] / "src"

# Each scenario marks its worker busy (one file per worker pid), then
# sleeps far longer than the test waits.
_SLEEPING_SWEEP = textwrap.dedent("""
    import os, sys, time
    from repro.sweep import RunOptions, SweepPlan, run_plan
    from repro.sweep.tasks import register

    @register("test-sleep")
    def _sleep(spec):
        open(os.path.join(spec.params["dir"], str(os.getpid())), "w").close()
        time.sleep(60)
        return {}

    plan = SweepPlan.from_scenarios(
        "test-sleep", [{"dir": sys.argv[1], "i": i} for i in range(4)])
    run_plan(plan, RunOptions(workers=2, chunk_size=1))
""")


@pytest.mark.slow
def test_sigkilled_sweep_leaves_no_orphaned_worker(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    sweep = subprocess.Popen(
        [sys.executable, "-c", _SLEEPING_SWEEP, str(tmp_path)], env=env)
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 30.0
        while len(os.listdir(tmp_path)) < 2:
            assert sweep.poll() is None, "the sweep exited early"
            assert time.monotonic() < deadline, "pool workers never started"
            time.sleep(0.05)
        workers = _children(sweep.pid)
        assert len(workers) == 2, f"expected 2 pool workers, saw {workers}"
        sweep.kill()
        sweep.wait(timeout=10)
        deadline = time.monotonic() + 1.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        orphans = [pid for pid in workers if _running(pid)]
        assert not orphans, f"workers {orphans} outlived their sweep"
    finally:
        if sweep.poll() is None:
            sweep.kill()
            sweep.wait(timeout=10)
        for pid in workers:  # never leak them, even when the test fails
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
