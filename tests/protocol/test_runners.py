"""Direct unit tests for the phase runners, on hand-built contexts.

Each runner is exercised against an :class:`EngagementContext`
assembled by hand (no ``ProtocolEngine.run()``), pinning the Section 4
phase invariants at the runner level:

* a fine raised in phase 1 or 2 terminates the engagement immediately
  (no downstream state is ever produced);
* a payment-phase fine does *not* void the completed computation — the
  engagement still settles on the referee's vector;
* degraded and normal paths settle through the same ``settle`` and
  both conserve the double-entry ledger exactly.
"""

import pytest

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
from repro.crypto.blocks import divide_load
from repro.dlt.platform import NetworkKind
from repro.network.faults import CrashFault, FaultPlan
from repro.protocol.context import EngagementContext
from repro.protocol.phases import Phase
from repro.protocol.runners import (
    AllocationRunner,
    BiddingRunner,
    PaymentsRunner,
    ProcessingRunner,
)

W = [2.0, 3.0, 5.0]
Z = 0.4


def build(w=W, kind=NetworkKind.NCP_FE, z=Z, **kw):
    """A wired engine plus a hand-built context (no engine.run())."""
    mech = DLSBLNCP(list(w), kind, z, config=EngineConfig(pki_seed=11, **kw))
    eng = mech.engine
    ctx = EngagementContext(
        agents=eng.agents, originator=eng.originator, kind=eng.kind,
        z=eng.z, num_blocks=eng.num_blocks, bidding_mode=eng.bidding_mode,
        policy=eng.policy, pki=eng.pki, user_key=eng.user_key,
        referee=eng.referee, infra=eng.infra, bus=eng.bus, memo=eng.memo,
        deadlines=eng.deadlines, retry=eng.retry, fault_plan=eng._fault_plan,
        order=eng.order, bulletin=eng._bulletin, received=eng._received,
        blocks=divide_load(eng.user_key, 1.0, eng.num_blocks),
    )
    return eng, ctx


def run_phase(eng, ctx, runner):
    eng.bus.enter_phase(runner.phase)
    return runner.run(ctx)


def run_until(eng, ctx, last_phase):
    """Drive runners in protocol order through *last_phase*."""
    runners = {r.phase: r for r in (BiddingRunner(), AllocationRunner(),
                                    ProcessingRunner(), PaymentsRunner())}
    phase = Phase.BIDDING
    while True:
        outcome = run_phase(eng, ctx, runners[phase])
        if phase is last_phase or outcome.next_phase is None:
            return outcome
        phase = outcome.next_phase


class TestBiddingRunner:
    def test_honest_cohort_is_fixed(self):
        eng, ctx = build()
        outcome = run_phase(eng, ctx, BiddingRunner())
        assert outcome.next_phase is Phase.ALLOCATING_LOAD
        assert ctx.active == ["P1", "P2", "P3"]
        assert ctx.bids == {"P1": 2.0, "P2": 3.0, "P3": 5.0}
        assert ctx.net_bids is not None
        assert ctx.fine > 0

    def test_phase1_fine_terminates_immediately(self):
        # Section 4 invariant: a Bidding-phase fine ends the engagement
        # on the spot — nothing downstream (allocation, meters,
        # payments) is ever produced.
        eng, ctx = build(behaviors={
            1: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})})
        outcome = run_phase(eng, ctx, BiddingRunner())
        assert outcome.terminates
        assert outcome.fines > 0
        assert not ctx.completed
        assert ctx.terminal_phase is Phase.BIDDING
        assert ctx.alpha is None
        assert ctx.payments == {}
        assert ctx.phi == {}
        # Fines and compensations moved through escrow: conserved.
        assert abs(eng.infra.ledger.total) < 1e-9

    def test_abstainer_is_excluded_not_fined(self):
        eng, ctx = build(behaviors={1: AgentBehavior(abstain=True)})
        outcome = run_phase(eng, ctx, BiddingRunner())
        assert outcome.next_phase is Phase.ALLOCATING_LOAD
        assert ctx.active == ["P1", "P3"]
        assert outcome.fines == 0


class TestAllocationRunner:
    def test_blocks_are_partitioned_and_shipped(self):
        eng, ctx = build()
        run_phase(eng, ctx, BiddingRunner())
        outcome = run_phase(eng, ctx, AllocationRunner())
        assert outcome.next_phase is Phase.PROCESSING_LOAD
        assert sum(len(s) for s in ctx.slices.values()) == ctx.num_blocks
        for name in ctx.active:
            assert len(ctx.received[name]) == len(ctx.slices[name])
        assert set(ctx.ready) == set(ctx.active)
        assert ctx.alpha is not None and len(ctx.alpha) == len(ctx.active)

    def test_phase2_fine_terminates_immediately(self):
        # Section 4 invariant: an Allocating-Load dispute fine ends the
        # engagement before any processing or payments happen.
        eng, ctx = build(behaviors={
            0: AgentBehavior(deviations={Deviation.SHORT_ALLOCATION},
                             deviation_params={"victim": "P3",
                                               "delta_blocks": 2})})
        run_phase(eng, ctx, BiddingRunner())
        outcome = run_phase(eng, ctx, AllocationRunner())
        assert outcome.terminates
        assert outcome.fines > 0
        assert not ctx.completed
        assert ctx.terminal_phase is Phase.ALLOCATING_LOAD
        assert ctx.payments == {}
        assert ctx.phi == {}
        assert abs(eng.infra.ledger.total) < 1e-9


class TestProcessingRunner:
    def test_meters_record_alpha_times_w(self):
        eng, ctx = build()
        run_until(eng, ctx, Phase.ALLOCATING_LOAD)
        outcome = run_phase(eng, ctx, ProcessingRunner())
        assert outcome.next_phase is Phase.COMPUTING_PAYMENTS
        for n in ctx.active:
            assert ctx.phi[n] == pytest.approx(
                ctx.alpha_map[n] * ctx.w_exec[n])
        assert ctx.realized > 0


class TestPaymentsRunner:
    def test_honest_run_settles(self):
        eng, ctx = build()
        run_until(eng, ctx, Phase.PROCESSING_LOAD)
        outcome = run_phase(eng, ctx, PaymentsRunner())
        assert outcome.terminates
        assert outcome.fines == 0
        assert ctx.completed
        assert ctx.terminal_phase is Phase.COMPLETE
        assert set(ctx.payments) == set(ctx.active)
        assert all(q > 0 for q in ctx.payments.values())

    def test_payment_phase_fine_does_not_void_computation(self):
        # Section 4 invariant: a Computing-Payments fine settles on the
        # referee's recomputed vector instead of voiding the run.
        eng, ctx = build(behaviors={
            1: AgentBehavior(deviations={Deviation.WRONG_PAYMENTS})})
        outcome = run_until(eng, ctx, Phase.COMPUTING_PAYMENTS)
        assert outcome.fines > 0
        assert ctx.completed
        assert ctx.terminal_phase is Phase.COMPLETE
        # The settled vector equals the honest one — the deviant's
        # submission changed nothing but its own fine.
        eng2, ctx2 = build()
        run_until(eng2, ctx2, Phase.COMPUTING_PAYMENTS)
        assert ctx.payments == pytest.approx(ctx2.payments)


class TestSettleIsShared:
    """Degraded and normal paths settle identically (satellite #1)."""

    def test_runner_drive_plus_settle_matches_engine_run(self):
        eng, ctx = build()
        run_until(eng, ctx, Phase.COMPUTING_PAYMENTS)
        result = eng.settle(ctx)
        reference = DLSBLNCP(W, NetworkKind.NCP_FE, Z,
                             config=EngineConfig(pki_seed=11)).run()
        assert result.payments == pytest.approx(reference.payments)
        assert result.balances == pytest.approx(reference.balances)
        assert result.utilities == pytest.approx(reference.utilities)

    @pytest.mark.parametrize("fault_plan", [
        None,
        FaultPlan(crashes=(CrashFault("P3", phase=Phase.PROCESSING_LOAD,
                                      progress=0.5),)),
        FaultPlan(crashes=(CrashFault("P1", phase=Phase.PROCESSING_LOAD,
                                      progress=0.3),)),
        FaultPlan(crashes=(CrashFault("P2",
                                      phase=Phase.COMPUTING_PAYMENTS),)),
    ], ids=["normal", "crash-mid", "crash-originator", "crash-payments"])
    def test_every_path_conserves_the_ledger(self, fault_plan):
        w = [2.0, 3.0, 5.0, 4.0]
        mech = DLSBLNCP(w, NetworkKind.NCP_FE, Z,
                        config=EngineConfig(pki_seed=11,
                                            fault_plan=fault_plan))
        out = mech.run()
        ledger = mech.engine.infra.ledger
        assert abs(ledger.total) < 1e-9
        if out.payments and any(out.payments.values()):
            # The user's bill equals the settled payment vector exactly
            # — the same settle() produced both, on every path.
            assert out.user_cost == pytest.approx(
                sum(out.payments.values()))
