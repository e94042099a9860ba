"""The engagement context: one protocol run's state, made explicit.

Historically the protocol engine threaded its per-run state through
``self.*`` attributes and a 300-line ``_execute`` method.  The state now
lives in one :class:`EngagementContext` record that is handed to each
:class:`PhaseRunner` in turn: the wiring fields (agents, bus, referee,
ledger, caches, policies) are set once by the coordinator and never
rebound, while the engagement fields (bids, active cohort, alpha and
payment vectors, meters, fault state) are produced phase by phase as
the run progresses.  Every layer reads and writes the same context, so
"what does this phase need / produce" is visible in one place instead
of being implied by attribute mutation order.

The module also defines the small contracts the layers share:

* :class:`Endpoint` — anything attachable to the bus by the
  coordinator (a name plus a handler factory); the engine wires
  endpoints without knowing anything about agent internals.
* :class:`PhaseRunner` / :class:`PhaseOutcome` — one runner per paper
  phase (Section 4), each returning the verdicts it raised, the fines
  it levied and a next-phase decision.  Early termination (a phase-1/2
  fine, a dead originator) is an ordinary outcome — ``next_phase =
  None`` sends the run to settlement — not a forked code path.
* :class:`PhaseDeadlines` / :class:`RetryPolicy` — the fault-tolerance
  policies, with a per-phase deadline lookup used by the runners.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Protocol, runtime_checkable

import numpy as np

from repro.network.messages import Message, MessageKind
from repro.protocol.phases import Phase

if TYPE_CHECKING:  # wiring types only; no runtime dependency on these layers
    from repro.core.fines import FinePolicy
    from repro.core.referee import Referee, RefereeVerdict
    from repro.crypto.pki import PKI
    from repro.crypto.signatures import SigningKey
    from repro.dlt.platform import BusNetwork, NetworkKind
    from repro.network.bus import Bus
    from repro.network.faults import FaultPlan
    from repro.perf import ComputationCache
    from repro.protocol.payment_infra import PaymentInfrastructure

__all__ = [
    "Endpoint",
    "EngagementContext",
    "PhaseDeadlines",
    "PhaseOutcome",
    "PhaseRunner",
    "RetryPolicy",
    "REFEREE",
    "USER",
]

REFEREE = "referee"
USER = "user"


@dataclass(frozen=True)
class PhaseDeadlines:
    """Per-phase timeout budgets, in simulated time.

    ``bidding`` / ``payments`` bound how long the engine keeps retrying
    undelivered control messages in the respective phase;
    ``processing_grace`` is how long past a worker's *bid-asserted*
    finishing time the referee waits before declaring it unresponsive
    (the referee holds no private ``w~``, so the bid is the only
    finishing estimate available to it).  ``evidence`` bounds the retry
    window for evidence submitted to the referee (claims and bid
    vectors), which can happen in *any* phase; ``committee_round`` is
    one quorum round's budget — a committee leader that produces no
    verifiable certificate within it is rotated out.
    """

    bidding: float = 1.0
    payments: float = 1.0
    processing_grace: float = 0.25
    evidence: float = 1.0
    committee_round: float = 0.5

    def __post_init__(self) -> None:
        for name in ("bidding", "payments", "processing_grace",
                     "evidence", "committee_round"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    def window_for(self, phase: Phase) -> float:
        """Retry window for control messages sent during *phase*.

        Only the phases that unicast control traffic have a window;
        asking for any other phase is a programming error.
        """
        if phase is Phase.BIDDING:
            return self.bidding
        if phase is Phase.COMPUTING_PAYMENTS:
            return self.payments
        raise ValueError(f"no retry window is defined for {phase.name}")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded ack/retry recovery for unicast control messages.

    After a send, recipients the transport did not acknowledge are
    retried with doubling backoff (``backoff``, ``2*backoff``, ...)
    until delivered, ``max_attempts`` total attempts are spent, or the
    phase deadline would be crossed.  Backoff elapses on the simulated
    clock, so recovery delays show up in realized makespans.
    """

    max_attempts: int = 4
    backoff: float = 0.01

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff <= 0:
            raise ValueError("backoff must be > 0")


@runtime_checkable
class Endpoint(Protocol):
    """Anything the coordinator can attach to the bus.

    The engine never builds message handlers itself: each endpoint
    supplies its own via :meth:`bus_handler`, closing over the shared
    inbox (where the engine parks received load blocks) and the shared
    commitment bulletin.  :class:`~repro.agents.processor.ProcessorAgent`
    is the canonical implementation.
    """

    name: str

    def bus_handler(self, inbox: list,
                    bulletin: dict) -> Callable[["Message"], None]:
        """Build this endpoint's bus message handler."""
        ...  # pragma: no cover - protocol declaration


@dataclass(frozen=True)
class PhaseOutcome:
    """What one phase runner decided.

    ``next_phase`` is the control-flow verdict: the next phase to run,
    or ``None`` to proceed straight to settlement (both successful
    completion and early termination end this way — which one it was is
    recorded on the context's ``completed``/``terminal_phase`` fields).
    ``verdicts`` and ``fines`` summarize the referee activity the phase
    produced, for the trace spans.
    """

    phase: Phase
    next_phase: Phase | None
    verdicts: tuple["RefereeVerdict", ...] = ()

    @property
    def fines(self) -> float:
        """Total fine amount levied during the phase."""
        return float(sum(f.amount for v in self.verdicts for f in v.fines))

    @property
    def terminates(self) -> bool:
        return self.next_phase is None


@dataclass
class EngagementContext:
    """Everything one DLS-BL-NCP engagement knows, in one record.

    The first block is wiring, set once by the coordinator; the second
    is engagement state, produced by the phase runners in protocol
    order.  Runners communicate *only* through this record — no runner
    holds state of its own, which is what makes them unit-testable with
    a hand-built context.
    """

    # --- wiring (set by the coordinator, never rebound) -----------------
    agents: list                                  # all Endpoints, in order
    originator: Any                               # the physical data holder
    kind: "NetworkKind"
    z: float
    num_blocks: int
    bidding_mode: str
    policy: "FinePolicy"
    pki: "PKI"
    user_key: "SigningKey"
    referee: "Referee"
    infra: "PaymentInfrastructure"
    bus: "Bus"
    memo: "ComputationCache | None"
    deadlines: PhaseDeadlines
    retry: RetryPolicy
    fault_plan: "FaultPlan | None"
    order: list[str]                              # all agent names, in order
    bulletin: dict = field(default_factory=dict)  # commit-mode bulletin board
    received: dict[str, list] = field(default_factory=dict)  # load inboxes
    # Committee mode: the committee behind ``referee`` (None when a
    # single trusted referee adjudicates).  When set, it must certify
    # every verdict before its fines bind.
    adjudicator: Any = None
    # Which engagement this context is, when several multiplex one bus
    # (``None`` = the solo case — the engagement owns the root scope).
    # The id is addressing metadata only: runners never branch on it,
    # they just ride a bus view that stamps it onto outgoing traffic.
    engagement_id: str | None = None
    # Atomic-mode bid archive shared by the agents (``None`` when each
    # keeps a private one): Bidding delivers each BID broadcast to it
    # once instead of once per listener.
    bid_board: Any = None

    # --- engagement state (produced phase by phase) ---------------------
    blocks: tuple = ()                            # the user's signed load
    verdicts: list = field(default_factory=list)
    participants: list = field(default_factory=list)  # agents still engaged
    active: list[str] = field(default_factory=list)   # their names
    bids: dict[str, float] = field(default_factory=dict)
    net_bids: "BusNetwork | None" = None
    fine: float = 0.0
    alpha: np.ndarray | None = None
    alpha_map: dict[str, float] = field(default_factory=dict)
    slices: dict[str, tuple] = field(default_factory=dict)
    ready: dict[str, float] = field(default_factory=dict)
    w_exec: dict[str, float] = field(default_factory=dict)
    w_obs: dict[str, float] = field(default_factory=dict)
    phi: dict[str, float] = field(default_factory=dict)
    payments: dict[str, float] = field(default_factory=dict)
    costs: dict[str, float] = field(default_factory=dict)
    realized: float | None = None
    completed: bool = False
    terminal_phase: Phase = Phase.BIDDING
    degraded: bool = False
    crashed: tuple[str, ...] = ()
    reallocations: dict[str, float] = field(default_factory=dict)

    # --- shared services -------------------------------------------------

    @property
    def clock(self) -> float:
        """Current simulated time (the bus's event clock)."""
        return self.bus.queue.now

    def apply_verdict(self, verdict: "RefereeVerdict") -> None:
        """Record a verdict and execute its monetary consequences.

        In committee mode no verdict binds on anyone's word alone: the
        committee must :meth:`~repro.core.quorum.RefereeCommittee.certify`
        it — a verifying certificate for exactly this verdict, at this
        committee's quorum — before any fine is collected.  Anything
        less is a protocol violation, not a judgement call — it raises.
        """
        if self.adjudicator is not None:
            self.adjudicator.certify(verdict)
        self.verdicts.append(verdict)
        for f in verdict.fines:
            self.infra.collect_fine(f.who, f.amount, f.offence)
        self.bus.broadcast(Message(MessageKind.VERDICT, REFEREE, ("*",), {
            "case": verdict.case,
            "fined": list(verdict.fined_names),
        }))
        if verdict.compensated:
            self.infra.distribute_from_escrow(verdict.compensated,
                                              "compensation")
        if verdict.rewards:
            self.infra.distribute_from_escrow(verdict.rewards,
                                              "informer-reward")

    def send_with_retry(self, msg: "Message", *,
                        window: float) -> tuple[str, ...]:
        """Unicast with bounded ack/retry recovery.

        On the reliable bus this is exactly one :meth:`Bus.send` (the
        fault-free wire trace is untouched).  Under an armed fault
        plan, recipients the transport did not acknowledge are retried
        with doubling backoff on the simulated clock, bounded by
        ``retry.max_attempts`` and the phase *window*.  Every
        retransmission is counted in ``TrafficStats.retries``.
        Returns the recipients that acknowledged delivery.
        """
        bus = self.bus
        delivered = set(bus.send(msg))
        if self.fault_plan is None:
            return tuple(msg.recipients)
        remaining = [r for r in msg.recipients if r not in delivered]
        deadline = bus.queue.now + window
        backoff = self.retry.backoff
        attempts = 1
        while remaining and attempts < self.retry.max_attempts:
            # Dead peers never ack; retrying them wastes the budget.
            remaining = [r for r in remaining if not bus.is_crashed(r)]
            if not remaining or bus.queue.now + backoff > deadline + 1e-12:
                break
            bus.queue.run_until(bus.queue.now + backoff)
            bus.stats.record_retry(len(remaining))
            got = bus.send(replace(msg, recipients=tuple(remaining)))
            remaining = [r for r in remaining if r not in got]
            attempts += 1
            backoff *= 2.0
        return tuple(r for r in msg.recipients if r not in remaining)


class PhaseRunner:
    """One protocol phase as a composable unit.

    Subclasses set :attr:`phase` and implement :meth:`run`, reading and
    writing the :class:`EngagementContext` only.  The coordinator calls
    runners in protocol order, following each outcome's ``next_phase``
    until one returns ``None``.
    """

    phase: Phase

    def run(self, ctx: EngagementContext) -> PhaseOutcome:
        raise NotImplementedError

    def _outcome(self, ctx: EngagementContext, next_phase: Phase | None,
                 mark: int) -> PhaseOutcome:
        """Build the outcome; *mark* is ``len(ctx.verdicts)`` at entry."""
        return PhaseOutcome(phase=self.phase, next_phase=next_phase,
                            verdicts=tuple(ctx.verdicts[mark:]))
