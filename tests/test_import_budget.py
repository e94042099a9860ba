"""Cold-start import budget: serving paths never load scipy or networkx.

The mechanism runs on closed forms (Algorithms 2.1/2.2, Eqs. 10-12).
scipy is only the LP optimality oracle behind ``repro.dlt.diagnose``
and networkx only the tree mechanism's graph type, so both are imported
inside the functions that need them.  Every check here runs in a fresh
interpreter: several test modules import networkx themselves, so an
in-process ``sys.modules`` check would see their imports, not the
package's.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_REPORT = textwrap.dedent("""
    import json as _json, sys as _sys
    print(_json.dumps(sorted({name.split(".")[0] for name in _sys.modules}
                             & {"scipy", "networkx"})))
""")


def loaded_after(code: str) -> list[str]:
    """Heavy top-level packages in ``sys.modules`` after running *code*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    r = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + _REPORT],
        capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr[-2000:]
    return json.loads(r.stdout.strip().splitlines()[-1])


SERVING_PATHS = {
    "import-repro": "import repro",
    "import-cli-and-daemon": "import repro.cli, repro.service.daemon",
    "engagement": """
        from repro.api import EngagementRequest, execute
        assert execute(EngagementRequest(w=(2.0, 3.0, 5.0), z=0.4)).digest()
    """,
    "multi-engagement": """
        from repro.api import EngagementRequest, MultiEngagementRequest, execute
        req = MultiEngagementRequest(engagements=(
            EngagementRequest(w=(4.0, 6.0, 10.0, 8.0), z=0.4).to_dict(),
            EngagementRequest(w=(2.0, 3.0, 5.0), z=0.4).to_dict()))
        assert execute(req).digest()
    """,
    "sweep": """
        from repro.api import SweepRequest, execute
        from repro.sweep import SweepPlan
        plan = SweepPlan.from_scenarios("utility-point", [
            {"w": [2.0, 3.0, 5.0], "z": 0.4, "kind": "ncp-fe", "i": 0,
             "bid_factor": f, "exec_factor": 1.0} for f in (0.9, 1.0, 1.1)])
        assert execute(SweepRequest(plan=plan.to_dict())).digest()
    """,
    "market": """
        from repro.api import MarketRequest, execute
        assert execute(MarketRequest(rounds=20)).digest()
    """,
}


@pytest.mark.parametrize("code", SERVING_PATHS.values(), ids=SERVING_PATHS)
def test_serving_path_loads_neither_scipy_nor_networkx(code):
    assert loaded_after(code) == []


def test_regime_diagnosis_loads_scipy_on_demand():
    assert loaded_after("""
        import sys
        from repro.dlt import BusNetwork, NetworkKind, diagnose
        assert "scipy" not in sys.modules
        report = diagnose(BusNetwork((2.0, 3.0, 5.0), 0.4, NetworkKind.NCP_FE))
        assert report.closed_form_optimal
    """) == ["scipy"]


def test_tree_mechanism_runs_with_networkx_loaded_on_demand():
    assert loaded_after("""
        import sys
        from repro.core import DLSTree
        assert "networkx" not in sys.modules
        import networkx as nx
        g = nx.DiGraph()
        g.add_edge("r", "a", z=0.2)
        g.add_edge("r", "b", z=0.3)
        bids = {"r": 2.0, "a": 3.0, "b": 4.0}
        result = DLSTree(g, "r").run(bids, bids)
        assert abs(sum(result.alpha) - 1.0) < 1e-9
    """) == ["networkx"]
