"""Pool workers never outlive their daemon.

A SIGKILLed ``repro serve`` runs no shutdown code, so nothing joins its
forked ``WarmPool`` workers: without a guard they are re-parented to
init and keep running.  Each worker must notice the death and exit.
"""

import os
import signal
import sys
import time

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
