"""Future-work extensions: divisible loads on star, linear and tree networks.

The paper's conclusion (Section 6) announces follow-on work on "other
network architectures".  This module implements the classical DLT
solvers those mechanisms would sit on, using the same
simultaneous-finish principle as the bus solvers:

* **Star (single-level tree)** — the originator is the hub; link ``i``
  has its own per-unit time ``z_i``.  The bus-with-control-processor is
  the special case ``z_i == z``.  Unlike the bus, the *order* in which
  fractions are shipped matters (Theorem 2.2 fails); serving links in
  nondecreasing ``z_i`` order is optimal, which
  :func:`star_best_order` verifies by enumeration.
* **Linear daisy chain** — processors in a line, store-and-forward with
  front ends; each node keeps its fraction and forwards the rest.  The
  equal-finish conditions form a dense linear system solved directly.
* **Tree** — arbitrary trees via the standard *equivalent processor*
  reduction: every internal node and its (already collapsed) children
  form a star, whose optimal unit-load makespan becomes the node's
  equivalent ``w``.  Implemented over :mod:`networkx` digraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import TYPE_CHECKING

import numpy as np

from repro.dlt.platform import validate_positive

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "StarNetwork",
    "allocate_star",
    "star_finish_times",
    "star_makespan",
    "star_best_order",
    "allocate_linear",
    "linear_finish_times",
    "TreeNode",
    "collapse_tree",
    "allocate_tree",
]


# --------------------------------------------------------------------------
# Star networks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StarNetwork:
    """A star: an originating hub plus ``m`` workers on private links.

    ``w[i]`` is worker ``i``'s per-unit processing time and ``z[i]`` its
    link's per-unit communication time.  The hub has no processing
    capacity (it plays the control-processor role) and obeys the
    one-port model: it feeds one link at a time, in index order.
    """

    w: tuple[float, ...]
    z: tuple[float, ...]

    def __post_init__(self) -> None:
        w = validate_positive(self.w, "w")
        z = validate_positive(self.z, "z")
        if len(w) != len(z):
            raise ValueError(f"w and z lengths differ: {len(w)} vs {len(z)}")
        object.__setattr__(self, "w", tuple(float(x) for x in w))
        object.__setattr__(self, "z", tuple(float(x) for x in z))

    @property
    def m(self) -> int:
        return len(self.w)

    def permuted(self, order) -> "StarNetwork":
        if sorted(order) != list(range(self.m)):
            raise ValueError(f"{order!r} is not a permutation of range({self.m})")
        return StarNetwork(tuple(self.w[j] for j in order),
                           tuple(self.z[j] for j in order))


def allocate_star(star: StarNetwork) -> np.ndarray:
    """Optimal fractions for a star served in index order.

    Equal-finish recursion: ``alpha_i w_i = alpha_{i+1} (z_{i+1} + w_{i+1})``
    — the bus recursion with the *receiving* link's own ``z``.
    """
    w = np.asarray(star.w)
    z = np.asarray(star.z)
    if star.m == 1:
        return np.ones(1)
    k = w[:-1] / (z[1:] + w[1:])
    weights = np.concatenate(([1.0], np.cumprod(k)))
    return weights / weights.sum()


def star_finish_times(alpha, star: StarNetwork) -> np.ndarray:
    """``T_i = sum_{j<=i} alpha_j z_j + alpha_i w_i`` (one-port hub)."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (star.m,):
        raise ValueError(f"alpha must have shape ({star.m},), got {alpha.shape}")
    z = np.asarray(star.z)
    w = np.asarray(star.w)
    return np.cumsum(alpha * z) + alpha * w


def star_makespan(alpha, star: StarNetwork) -> float:
    return float(np.max(star_finish_times(alpha, star)))


def star_best_order(star: StarNetwork, *, limit: int = 720) -> tuple[tuple[int, ...], float, float]:
    """Enumerate service orders; return (best order, best T, worst T).

    Demonstrates that Theorem 2.2 is a *bus* phenomenon: on stars with
    heterogeneous links the spread is strictly positive, and the best
    order is nondecreasing in ``z`` (ties broken arbitrarily).
    """
    best_order: tuple[int, ...] | None = None
    best = np.inf
    worst = -np.inf
    for count, order in enumerate(permutations(range(star.m))):
        if count >= limit:
            break
        net = star.permuted(order)
        t = star_makespan(allocate_star(net), net)
        if t < best:
            best, best_order = t, tuple(order)
        worst = max(worst, t)
    assert best_order is not None
    return best_order, float(best), float(worst)


# --------------------------------------------------------------------------
# Linear daisy chains
# --------------------------------------------------------------------------

def _hop_vector(z, m: int) -> np.ndarray:
    """Normalize *z* into per-hop link times of length ``m - 1``.

    A scalar means a homogeneous chain; a sequence gives each hop
    (``P_i -> P_{i+1}``) its own per-unit time — needed e.g. when a
    removed relay's two hops merge into one slower hop.
    """
    if np.isscalar(z):
        if z <= 0.0:
            raise ValueError(f"z must be positive, got {z}")
        return np.full(max(m - 1, 0), float(z))
    hops = validate_positive(z, "z") if m > 1 else np.empty(0)
    if m > 1 and len(hops) != m - 1:
        raise ValueError(f"need {m - 1} hop times for {m} nodes, got {len(hops)}")
    return hops


def _linear_system(w: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """Coefficient matrix of the equal-finish conditions for a chain.

    Row ``i`` (0-based, i < m-1) encodes
    ``alpha_i w_i - z_i * sum_{j>i} alpha_j - alpha_{i+1} w_{i+1} = 0``;
    the last row is the normalization ``sum alpha = 1``.
    """
    m = len(w)
    A = np.zeros((m, m))
    for i in range(m - 1):
        A[i, i] = w[i]
        A[i, i + 1 :] -= hops[i]
        A[i, i + 1] -= w[i + 1]
    A[m - 1, :] = 1.0
    return A


def allocate_linear(w, z) -> np.ndarray:
    """Optimal fractions for a front-ended linear daisy chain.

    ``P_1`` originates; each ``P_i`` keeps ``alpha_i`` and immediately
    forwards the remaining ``sum_{j>i} alpha_j`` to ``P_{i+1}`` while
    computing (front end).  Equal finish times give a dense linear
    system (the forwarded *remainder* couples every downstream fraction
    into each equation), solved directly.

    *z* is either one per-unit hop time for the whole chain or a vector
    of ``m - 1`` per-hop times.
    """
    w = validate_positive(w, "w")
    m = len(w)
    hops = _hop_vector(z, m)
    if m == 1:
        return np.ones(1)
    A = _linear_system(w, hops)
    b = np.zeros(m)
    b[m - 1] = 1.0
    alpha = np.linalg.solve(A, b)
    if np.any(alpha <= 0.0):
        raise ArithmeticError(
            f"non-positive allocation {alpha} for w={w}, z={z}; chain out of "
            "the participation regime (forwarding costs exceed the tail's "
            "marginal value)")
    return alpha


def linear_finish_times(alpha, w, z) -> np.ndarray:
    """Finish times on the chain: ``T_i = R_i + alpha_i w_i`` where the
    ready time accumulates the store-and-forward hops,
    ``R_{i+1} = R_i + z_i * sum_{j>i} alpha_j`` and ``R_1 = 0``."""
    alpha = np.asarray(alpha, dtype=float)
    w = np.asarray(w, dtype=float)
    m = len(w)
    hops = _hop_vector(z, m)
    if alpha.shape != (m,):
        raise ValueError(f"alpha must have shape ({m},), got {alpha.shape}")
    suffix = np.concatenate((np.cumsum(alpha[::-1])[::-1][1:], [0.0]))
    ready = np.concatenate(([0.0], np.cumsum(hops * suffix[:-1])))
    return ready + alpha * w


# --------------------------------------------------------------------------
# Tree networks (equivalent-processor collapse)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeNode:
    """Computed equivalent of a subtree: a single virtual processor."""

    w_equivalent: float
    size: int


def _computing_hub_star(w_own: float, child_w, links) -> float:
    """Unit-load makespan of a star whose hub also computes (front end)."""
    w = np.array([w_own] + list(child_w))
    z = np.array([0.0] + list(links))
    k = w[:-1] / (z[1:] + w[1:])
    weights = np.concatenate(([1.0], np.cumprod(k)))
    alpha = weights / weights.sum()
    finish = np.cumsum(alpha * z) + alpha * w
    return float(np.max(finish))


def _relay_hub_star(child_w, links) -> float:
    """Unit-load makespan when the hub only relays (no compute).

    The children form a heterogeneous-link star with a pure-distributor
    hub: ``T_i = sum_{j<=i} alpha_j z_j + alpha_i w_i``, equal finish.
    """
    star = StarNetwork(tuple(child_w), tuple(links))
    return star_makespan(allocate_star(star), star)


def _collapse(tree: nx.DiGraph, node, disabled: frozenset = frozenset()) -> TreeNode:
    """Equivalent processor for the subtree at *node*.

    Nodes in *disabled* keep their position on the data path but
    contribute no computation: a disabled leaf is an infinitely slow
    worker (dropped from its parent's star), a disabled internal node a
    pure relay hub.
    """
    children = list(tree.successors(node))
    w_own = float(tree.nodes[node]["w"])
    computes = node not in disabled
    if not children:
        if not computes:
            raise ValueError(
                f"disabled leaf {node!r} has no subtree to relay to")
        return TreeNode(w_own, 1)
    collapsed = [_collapse(tree, c, disabled) for c in children]
    links = [float(tree.edges[node, c]["z"]) for c in children]
    child_w = [c.w_equivalent for c in collapsed]
    if computes:
        t_unit = _computing_hub_star(w_own, child_w, links)
    else:
        t_unit = _relay_hub_star(child_w, links)
    return TreeNode(t_unit, 1 + sum(c.size for c in collapsed))


def collapse_tree(tree: nx.DiGraph, root, *, disabled=()) -> TreeNode:
    """Collapse *tree* (rooted digraph, node attr ``w``, edge attr ``z``)
    into a single equivalent processor.

    The returned ``w_equivalent`` is the optimal makespan for one unit
    of load originating at *root* — i.e. the tree behaves, to its
    parent, exactly like a lone processor of that speed.

    *disabled* nodes stay on the data path but do not compute (pure
    relays) — the exclusion semantics the tree mechanism needs; a
    disabled *leaf* must not be passed here (drop it from the tree
    instead: it has no subtree to relay to).
    """
    import networkx as nx

    if root not in tree:
        raise KeyError(f"root {root!r} not in tree")
    if not nx.is_arborescence(tree):
        raise ValueError("tree must be an arborescence (rooted out-tree)")
    return _collapse(tree, root, frozenset(disabled))


def tree_finish_times(
    tree: nx.DiGraph,
    root,
    shares: dict,
    w_exec: dict | None = None,
) -> dict:
    """Finish time of every node for a *fixed* allocation.

    Recursive one-port timing: a hub holding its subtree's load at time
    ``R`` computes its own share from ``R`` (front end) while shipping
    each child subtree's total share over that child's link, in child
    order, back-to-back.  ``w_exec`` overrides per-node execution values
    (defaults to the ``w`` node attributes) — the mechanism's mixed
    evaluation.

    Returns ``{node: finish_time}``.
    """
    import networkx as nx

    if not nx.is_arborescence(tree):
        raise ValueError("tree must be an arborescence (rooted out-tree)")
    w_exec = w_exec or {}
    finish: dict = {}

    def subtree_share(node) -> float:
        return shares[node] + sum(subtree_share(c) for c in tree.successors(node))

    def visit(node, ready: float) -> None:
        w = float(w_exec.get(node, tree.nodes[node]["w"]))
        finish[node] = ready + shares[node] * w
        clock = ready
        for child in tree.successors(node):
            z = float(tree.edges[node, child]["z"])
            clock += z * subtree_share(child)
            visit(child, clock)

    visit(root, 0.0)
    return finish


def allocate_tree(tree: nx.DiGraph, root) -> dict:
    """Per-node load fractions for the whole tree.

    Performs the collapse bottom-up, then unrolls top-down: the star
    allocation at each internal node says how much of the node's share
    stays local versus flows to each child subtree.
    """
    import networkx as nx

    if not nx.is_arborescence(tree):
        raise ValueError("tree must be an arborescence (rooted out-tree)")
    shares: dict = {}

    def distribute(node, share: float) -> None:
        children = list(tree.successors(node))
        w_own = float(tree.nodes[node]["w"])
        if not children:
            shares[node] = share
            return
        collapsed = [_collapse(tree, c) for c in children]
        links = [float(tree.edges[node, c]["z"]) for c in children]
        w = np.array([w_own] + [c.w_equivalent for c in collapsed])
        z = np.array([0.0] + links)
        k = w[:-1] / (z[1:] + w[1:])
        weights = np.concatenate(([1.0], np.cumprod(k)))
        alpha = weights / weights.sum()
        shares[node] = share * float(alpha[0])
        for child, frac in zip(children, alpha[1:]):
            distribute(child, share * float(frac))

    distribute(root, 1.0)
    return shares
