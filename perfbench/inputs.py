"""Seeded inputs for the three benchmark workloads.

Every input is a pure function of the benchmark seed (and, for streams,
of the unit's position), drawn from string-seeded ``random.Random``
instances under a versioned tag.  The program under test receives only
these generated v1 request objects; nothing here reads the wall clock,
and nothing here borrows a generator from the package (a change to
``repro.service.loadgen`` cannot move the ``served_mix`` workload).
"""

from __future__ import annotations

import random

from repro.api import (
    EngagementRequest,
    MarketRequest,
    MultiEngagementRequest,
    SweepRequest,
)
from repro.sweep.spec import SweepPlan

#: Folded into every RNG seed; bump it when a derivation below changes,
#: because the digests and work counts in ``recorded.json`` pin it.
INPUT_VERSION = "perfbench-inputs/v1"

ENGAGE_M = 512
MARKET_ROUNDS = 200
#: Offered load of ``served_mix`` in requests/s.  The 2-daemon fleet
#: sustains roughly 180-250 req/s closed loop on a 2-core machine, so
#: this sits at about a quarter of capacity: latency is the service's
#: own, not queueing behind a saturated worker.
SERVED_RATE = 50.0
#: Composition of every block of 20 served requests, shuffled within
#: the block: fixed shares keep the request mix — and so the latency
#: percentiles — from drifting with the seed.
SERVED_BLOCK = (("engagement",) * 11 + ("sweep",) * 4 + ("bundle",) * 2
                + ("repeat",) * 3)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (INPUT_VERSION, *parts)))


def engagement(seed: int, index: int, m: int = ENGAGE_M) -> EngagementRequest:
    """Unit *index* of ``engage_m512``: an honest, fault-free engagement.

    w ~ U[1, 10] per processor, z ~ U[0.1, 0.5]; the network kind
    alternates ncp-fe / ncp-nfe by position.  Keys are seeded so the
    whole run, signatures included, is reproducible.
    """
    rng = _rng("engage", seed, index)
    return EngagementRequest(
        w=tuple(rng.uniform(1.0, 10.0) for _ in range(m)),
        z=rng.uniform(0.1, 0.5),
        kind=("ncp-fe", "ncp-nfe")[index % 2],
        pki_seed=rng.randrange(2**31))


def market(seed: int, index: int,
           rounds: int = MARKET_ROUNDS) -> MarketRequest:
    """Unit *index* of ``market_churn``: 8 processors hired 3 at a time
    under Poisson arrivals that contend for the bus, with join/leave
    churn and one resident ``wrong-payments`` deviant.  Each unit is a
    different market, so a run averages over markets."""
    return MarketRequest(
        rounds=rounds, seed=_rng("market", seed, index).randrange(2**31),
        processors=8, cohort=3,
        arrival_rate=2.0, contention_window=0.5,
        join_rate=0.05, leave_rate=0.05,
        deviants=((0, "wrong-payments"),))


def _small_engagement(rng: random.Random) -> EngagementRequest:
    return EngagementRequest(
        w=tuple(round(rng.uniform(1.5, 6.0), 3)
                for _ in range(rng.randint(2, 4))),
        z=round(rng.uniform(0.2, 0.8), 3),
        kind=rng.choice(("ncp-fe", "ncp-nfe")),
        num_blocks=rng.choice((20, 30, 40)))


def _utility_sweep(rng: random.Random) -> SweepRequest:
    w = [round(rng.uniform(1.5, 6.0), 3) for _ in range(3)]
    z = round(rng.uniform(0.2, 0.8), 3)
    return SweepRequest(plan=SweepPlan.from_scenarios(
        "utility-point",
        [{"w": w, "z": z, "kind": "ncp-fe", "i": 0,
          "bid_factor": round(1.0 + 0.02 * j, 3), "exec_factor": 1.0}
         for j in range(rng.randint(2, 3))],
        root_seed=rng.randrange(2**31)).to_dict())


def _bundle(rng: random.Random) -> MultiEngagementRequest:
    z = round(rng.uniform(0.2, 0.8), 3)
    subs = tuple(
        EngagementRequest(
            w=tuple(round(rng.uniform(1.5, 6.0), 3)
                    for _ in range(rng.randint(2, 3))),
            z=z, num_blocks=rng.choice((20, 30))).to_dict()
        for _ in range(2))
    return MultiEngagementRequest(engagements=subs,
                                  policy=rng.choice(("fifo", "sjf")))


def served_mix(seed: int, count: int) -> list:
    """The ``served_mix`` request stream: *count* v1 requests.

    55% engagements at m = 2-4, 20% utility-point sweeps (the
    batch-kernel path), 10% two-engagement bundles (the arbiter path)
    and 15% exact repeats of an earlier request (result-cache hits), in
    a seeded order.
    """
    rng = _rng("served", seed)
    build = {"engagement": _small_engagement, "sweep": _utility_sweep,
             "bundle": _bundle}
    mix: list = []
    while len(mix) < count:
        block = list(SERVED_BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "repeat" and mix:
                mix.append(mix[rng.randrange(len(mix))])
            else:
                mix.append(build.get(kind, _small_engagement)(rng))
    return mix[:count]


def served_schedule(seed: int, count: int, span: float) -> list[float]:
    """Due times (seconds from start) of *count* Poisson arrivals in
    ``[0, span)``.

    Conditioned on the count, Poisson arrival times are sorted uniform
    draws; fixing the count keeps the offered load identical across
    seeds while the gaps stay exponential.
    """
    rng = _rng("schedule", seed, count)
    return sorted(rng.uniform(0.0, span) for _ in range(count))
