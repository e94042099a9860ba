"""Repeated engagements: a sequence of DLS-BL-NCP runs on one market.

The paper analyzes a single engagement; real compute markets run many.
This module chains protocol runs — one per submitted job — against a
persistent cast of processors, accumulating a cross-engagement ledger.
It makes the long-run deterrence story measurable: a processor that
deviates once forfeits an engagement's earnings *and* pays a fine,
while its honest peers collect both their payments and the informer
rewards, so the earnings gap widens with every job (the E17 benchmark
plots it).

Strategies may vary per engagement (``behavior_schedule``), which also
enables "deviate once then behave" scenarios.  Keys are registered once
per market; each engagement still uses a fresh bus and referee case
(the protocol is single-shot by construction — fines terminate it).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.agents.behaviors import AgentBehavior, truthful
from repro.agents.processor import ProcessorAgent
from repro.core.fines import FinePolicy
from repro.crypto.pki import PKI
from repro.dlt.platform import NetworkKind
from repro.protocol.engine import ProtocolEngine
from repro.protocol.results import ProtocolResult

__all__ = ["EngagementRecord", "MarketSession"]


@dataclass(frozen=True)
class EngagementRecord:
    """One job's outcome inside a session."""

    index: int
    outcome: ProtocolResult


@dataclass
class MarketSession:
    """A persistent market of processors serving a stream of jobs.

    Parameters
    ----------
    w_true:
        True per-unit processing times, fixed across engagements (the
        machines do not change; only strategies may).
    kind, z:
        Network model and bus rate.
    policy:
        Fine policy applied in every engagement.
    """

    w_true: list[float]
    kind: NetworkKind
    z: float
    policy: FinePolicy = field(default_factory=FinePolicy)
    num_blocks: int = 120

    def __post_init__(self) -> None:
        if len(self.w_true) < 2:
            raise ValueError("a market needs at least 2 processors")
        self.names = [f"P{i + 1}" for i in range(len(self.w_true))]
        self.records: list[EngagementRecord] = []
        self._cumulative: dict[str, float] = {n: 0.0 for n in self.names}

    # ------------------------------------------------------------------

    def run_engagement(
        self,
        behaviors: dict[int, AgentBehavior] | None = None,
    ) -> EngagementRecord:
        """Run one job through the full protocol and book the results."""
        behaviors = behaviors or {}
        pki = PKI()
        user_key = pki.register("user")
        agents = []
        for i, (name, w) in enumerate(zip(self.names, self.w_true)):
            key = pki.register(name)
            agents.append(ProcessorAgent(
                name, w, behaviors.get(i, truthful()),
                key=key, pki=pki, kind=self.kind, z=self.z))
        engine = ProtocolEngine(agents, self.kind, self.z, pki=pki,
                                user_key=user_key, policy=self.policy,
                                num_blocks=self.num_blocks)
        outcome = engine.run()
        for name in self.names:
            self._cumulative[name] += outcome.utilities[name]
        record = EngagementRecord(len(self.records), outcome)
        self.records.append(record)
        return record

    def run_schedule(
        self,
        jobs: int,
        behavior_schedule=None,
    ) -> list[EngagementRecord]:
        """Run *jobs* engagements.

        ``behavior_schedule`` maps an engagement index to its behaviors
        dict (callable or dict-of-dicts); omitted engagements are fully
        honest.
        """
        out = []
        for j in range(jobs):
            if callable(behavior_schedule):
                behaviors = behavior_schedule(j)
            elif behavior_schedule is not None:
                behaviors = behavior_schedule.get(j)
            else:
                behaviors = None
            out.append(self.run_engagement(behaviors))
        return out

    # ------------------------------------------------------------------

    def cumulative_utility(self, name: str) -> float:
        """Total utility booked for *name* across all engagements."""
        return self._cumulative[name]

    def cumulative_utilities(self) -> dict[str, float]:
        return dict(self._cumulative)

    def earnings_series(self, name: str) -> list[float]:
        """Running cumulative utility after each engagement."""
        series, total = [], 0.0
        for rec in self.records:
            total += rec.outcome.utilities[name]
            series.append(total)
        return series
