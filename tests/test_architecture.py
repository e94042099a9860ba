"""Import-layering lint: the dependency rules the refactor established.

The codebase is layered bottom-up:

    repro.dlt / repro.core        (mechanism math + referee logic)
        ^ must not import from
    repro.network / repro.agents / repro.protocol   (simulation stack)

and inside the protocol package:

    repro.protocol.runners        (phase logic)
        ^ must not import
    repro.agents internals        (runners talk to agents only through
                                   the methods the context hands them)

The lint walks every module's AST — including imports nested inside
functions (lazy imports count: they are still a runtime dependency) —
and skips only ``if TYPE_CHECKING:`` blocks, which express annotations,
not dependencies.  ``repro.core.dls_bl_ncp`` is the one sanctioned
exception: it is the user-facing facade that *assembles* the protocol
stack, documented as such in DESIGN.md.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# Modules in these packages must not import from these targets.
LOWER_LAYERS = ("repro.dlt", "repro.core")
UPPER_TARGETS = ("repro.protocol", "repro.network", "repro.agents")

# Sanctioned facade: assembles agents + engine for users of the core API.
ALLOWED = {"repro.core.dls_bl_ncp"}

RUNNERS_PKG = "repro.protocol.runners"
AGENT_INTERNALS = ("repro.agents",)


def _module_name(path: Path) -> str:
    rel = path.relative_to(SRC.parent).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_type_checking_block(node: ast.If) -> bool:
    test = node.test
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def _imports(tree: ast.Module):
    """Yield imported module names, skipping TYPE_CHECKING blocks."""

    def walk(body):
        for node in body:
            if isinstance(node, ast.If) and _is_type_checking_block(node):
                yield from walk(node.orelse)
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.level == 0:
                    yield node.module
            for child_body in (
                getattr(node, "body", None),
                getattr(node, "orelse", None),
                getattr(node, "finalbody", None),
                getattr(node, "handlers", None),
            ):
                if child_body and not (isinstance(node, ast.If)
                                       and child_body is node.body
                                       and _is_type_checking_block(node)):
                    items = []
                    for item in child_body:
                        if isinstance(item, ast.ExceptHandler):
                            items.extend(item.body)
                        else:
                            items.append(item)
                    yield from walk(items)

    yield from walk(tree.body)


def _violations(layer_prefixes, forbidden_prefixes, allowed=frozenset()):
    out = []
    for path in sorted(SRC.rglob("*.py")):
        mod = _module_name(path)
        if not mod.startswith(tuple(p + "." for p in layer_prefixes)) \
                and mod not in layer_prefixes:
            continue
        if mod in allowed:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported in _imports(tree):
            if imported.startswith(tuple(p + "." for p in forbidden_prefixes)) \
                    or imported in forbidden_prefixes:
                out.append(f"{mod} imports {imported}")
    return out


def test_core_and_dlt_do_not_import_simulation_stack():
    bad = _violations(LOWER_LAYERS, UPPER_TARGETS, allowed=ALLOWED)
    assert not bad, (
        "mechanism layers must not depend on the simulation stack:\n  "
        + "\n  ".join(bad))


def test_runners_do_not_import_agent_internals():
    bad = _violations((RUNNERS_PKG,), AGENT_INTERNALS)
    assert not bad, (
        "phase runners must reach agents only through the context:\n  "
        + "\n  ".join(bad))


def test_api_does_not_import_service():
    # repro.api is the wire contract; repro.service is one consumer of
    # it.  The dependency is strictly one-way (service -> api), so the
    # facade stays importable in environments with no asyncio daemon.
    bad = _violations(("repro.api",), ("repro.service",))
    assert not bad, (
        "repro.api must not depend on repro.service:\n  " + "\n  ".join(bad))


def test_sweep_does_not_import_service():
    # The fork pool lives in repro.sweep.pool, below both of its users:
    # the sweep runner and the service daemon.  repro.api reaches
    # repro.sweep, so a sweep -> service import would pull the serving
    # stack under the wire contract through the back door.
    bad = _violations(("repro.sweep",), ("repro.service",))
    assert not bad, (
        "repro.sweep must not depend on repro.service:\n  "
        + "\n  ".join(bad))


def test_cli_imports_analysis_only_through_facade():
    # The CLI is a thin client of repro.api; reaching into the analysis
    # package directly bypasses the versioned surface.  (The sanctioned
    # re-export module repro.api.analysis does not match this prefix.)
    bad = _violations(("repro.cli",), ("repro.analysis",))
    assert not bad, (
        "repro.cli must reach analysis code via repro.api.analysis:\n  "
        + "\n  ".join(bad))


def test_kernels_import_only_numpy_and_dlt():
    # repro.kernels sits at the bottom of the stack next to repro.dlt:
    # batch kernels may use numpy and the dlt types/oracles they mirror,
    # nothing above (no core, no sweep, no analysis) — otherwise the
    # "sweep reaches kernels, kernels never reach back" cycle guarantee
    # dies.  Stdlib modules are fine; anything repro.* outside dlt and
    # the package itself is a violation.
    allowed_prefixes = ("numpy", "repro.dlt", "repro.kernels")
    bad = []
    for path in sorted((SRC / "kernels").rglob("*.py")):
        mod = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported in _imports(tree):
            if imported.startswith("repro.") or imported == "repro":
                if not imported.startswith(allowed_prefixes):
                    bad.append(f"{mod} imports {imported}")
            elif not (imported.startswith(allowed_prefixes)
                      or imported.split(".")[0] in
                      ("__future__", "typing", "math", "itertools",
                       "functools", "dataclasses")):
                bad.append(f"{mod} imports {imported}")
    assert not bad, (
        "repro.kernels may import numpy, the stdlib and repro.dlt only:\n  "
        + "\n  ".join(bad))


def test_simulation_stack_does_not_import_kernels_directly():
    # The batch kernels are plumbed in at exactly two places: the
    # computation-cache layer (repro.perf.cache via
    # repro.core.fast_exclusion) and the sweep batch task registry
    # (repro.sweep.tasks).  Protocol runners, transports, agents, the
    # service daemon, the wire facade and the CLI must keep reaching the
    # math through those layers — a direct import would bypass the
    # cache's memoization and the digest-pinned task contract.
    bad = _violations(
        ("repro.protocol", "repro.network", "repro.agents",
         "repro.service", "repro.api", "repro.cli"),
        ("repro.kernels",))
    assert not bad, (
        "simulation/service layers must reach batch kernels through the "
        "cache layer or the sweep task registry, never directly:\n  "
        + "\n  ".join(bad))


def test_arbiter_sits_above_runners_and_below_service():
    # The bus-window arbiter schedules whole engagements: it may drive
    # the engine's session seam (and, lazily, the dls_bl_ncp facade that
    # assembles one), but it must never reach up into the serving stack
    # — the api/service layers call *it*, not the reverse.
    bad = _violations(("repro.protocol.arbiter",),
                      ("repro.service", "repro.api", "repro.cli"))
    assert not bad, (
        "repro.protocol.arbiter must stay below the api/service/cli "
        "layers:\n  " + "\n  ".join(bad))


def test_lower_layers_do_not_import_the_arbiter():
    # Phase runners, transports and agents are *scheduled by* the
    # arbiter; an upward import would collapse the scheduling seam
    # (and reintroduce the one-engagement-owns-the-bus assumption as a
    # hidden cycle).
    bad = _violations(
        ("repro.protocol.runners", "repro.network", "repro.agents"),
        ("repro.protocol.arbiter",))
    assert not bad, (
        "runners/network/agents must not depend on the arbiter:\n  "
        + "\n  ".join(bad))


def test_fleet_and_loadgen_stay_above_the_engine():
    # The fleet dispatcher is pure orchestration: digests, envelopes
    # and endpoints.  It may drive daemons (repro.service.daemon /
    # client / tcp) and speak the wire contract (repro.api), but it
    # must never compute — reaching protocol, kernels or the engine
    # layers directly would let a dispatcher answer produce a digest
    # the daemons it shards over could not.  The load generator is in
    # the same position: it *emits* requests (api types, sweep specs)
    # and digests responses; it never evaluates mechanisms itself.
    bad = _violations(
        ("repro.service.fleet", "repro.service.loadgen"),
        ("repro.protocol", "repro.kernels", "repro.network",
         "repro.agents", "repro.core", "repro.dlt"))
    assert not bad, (
        "fleet/loadgen must orchestrate, never compute:\n  "
        + "\n  ".join(bad))


def test_market_orchestrates_but_never_computes():
    # The market simulator is in the fleet/loadgen position one level
    # up: it composes api requests, drives the generic DES kernel and
    # folds records through the sweep digest helpers, and that is all.
    # Importing protocol, kernels, agents, engine layers or the serving
    # stack directly would let a market round settle differently from
    # the same round served through a daemon — the topology-invariance
    # contract the soak tier pins.  Within repro.network only the
    # generic events kernel is sanctioned (the shared DES clock);
    # transports and bus models stay behind the api executors.
    bad = _violations(
        ("repro.market",),
        ("repro.protocol", "repro.kernels", "repro.agents",
         "repro.core", "repro.dlt", "repro.service"))
    for path in sorted((SRC / "market").rglob("*.py")):
        mod = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported in _imports(tree):
            if (imported.startswith("repro.network")
                    and imported != "repro.network.events"):
                bad.append(f"{mod} imports {imported}")
    assert not bad, (
        "repro.market must orchestrate through repro.api and the DES "
        "kernel, never compute:\n  " + "\n  ".join(bad))


def test_tcp_is_the_only_socket_seam_in_the_service():
    # Every socket the service stack opens lives in repro.service.tcp:
    # transports multiply (unix, tcp, someday TLS) but the daemon,
    # client, fleet and pool handle Endpoint values and envelopes only.
    # An `import socket` anywhere else in the package is a new seam the
    # fleet's failover semantics (connect refused vs hang) don't cover.
    bad = []
    for path in sorted((SRC / "service").rglob("*.py")):
        mod = _module_name(path)
        if mod == "repro.service.tcp":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported in _imports(tree):
            if imported == "socket" or imported.startswith("socket."):
                bad.append(f"{mod} imports {imported}")
    assert not bad, (
        "repro.service.tcp is the only module in the service package "
        "that may touch the socket layer:\n  " + "\n  ".join(bad))


def test_facade_allowlist_is_not_stale():
    # If the facade stops importing the protocol stack, shrink ALLOWED.
    for mod in ALLOWED:
        path = SRC.parent / (mod.replace(".", "/") + ".py")
        assert path.exists(), f"allowlisted module {mod} no longer exists"
        tree = ast.parse(path.read_text(), filename=str(path))
        assert any(
            imported.startswith(UPPER_TARGETS) for imported in _imports(tree)
        ), f"{mod} no longer needs its allowlist entry — remove it"


def _eager_imports(body):
    """Yield modules imported at module or class level — i.e. on import
    of the module itself — skipping function bodies (they run on call)
    and ``if TYPE_CHECKING:`` blocks."""
    for node in body:
        if isinstance(node, ast.If) and _is_type_checking_block(node):
            yield from _eager_imports(node.orelse)
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.level == 0:
                yield node.module
        for field in ("body", "orelse", "finalbody", "handlers"):
            child = getattr(node, field, None)
            if isinstance(child, list):
                yield from _eager_imports(child)


def test_scipy_and_networkx_load_only_on_call():
    # Cold-start budget (DESIGN.md §4.6 item 8): the mechanism runs on
    # closed forms, so scipy (the LP optimality oracle) and networkx
    # (the tree mechanism's graph type) are imported inside the
    # functions that use them.  A module- or class-level import would
    # put them back on every `import repro`, CLI call and daemon spawn;
    # tests/test_import_budget.py checks the same budget at run time.
    heavy = ("scipy", "networkx")
    bad = []
    for path in sorted(SRC.rglob("*.py")):
        mod = _module_name(path)
        tree = ast.parse(path.read_text(), filename=str(path))
        for imported in _eager_imports(tree.body):
            if imported.split(".")[0] in heavy:
                bad.append(f"{mod} imports {imported} at import time")
    assert not bad, (
        "scipy/networkx must be imported inside the function that needs "
        "them (or under TYPE_CHECKING for annotations):\n  "
        + "\n  ".join(bad))
