"""Crash tolerance and fault recovery in the protocol engine."""

import random

import pytest

from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
from repro.dlt.platform import NetworkKind
from repro.network.faults import CrashFault, FaultPlan, MessageFault, StallFault
from repro.protocol.phases import Phase
from tests.conftest import (
    PROTO_W4 as W,
    PROTO_Z as Z,
    assert_ledger_conserved,
    crash_plan,
    run_protocol as run,
)

TOL = 1e-9


class TestEmptyPlanIsNoOp:
    def test_results_identical_without_and_with_empty_plan(self, ncp_kind):
        base = run(ncp_kind)
        empty = run(ncp_kind, fault_plan=FaultPlan())
        assert empty == base

    def test_none_plan_identical(self, ncp_kind):
        assert run(ncp_kind, fault_plan=None) == run(ncp_kind)


class TestMidProcessingCrash:
    @pytest.mark.parametrize("progress", [0.0, 0.25, 0.5, 0.75])
    def test_degraded_completion(self, ncp_kind, progress):
        out = run(ncp_kind, fault_plan=crash_plan("P3", progress))
        assert out.completed
        assert out.degraded
        assert out.crashed == ("P3",)
        assert any(v.case == "unresponsive:P3" for v in out.verdicts)
        assert_ledger_conserved(out)

    def test_survivors_absorb_unfinished_load(self, ncp_kind):
        out = run(ncp_kind, fault_plan=crash_plan("P3", 0.5))
        survivors = [n for n in out.order if n != "P3"]
        assert set(out.reallocations) == set(survivors)
        assert sum(out.reallocations.values()) > 0
        # The crashed worker keeps what it metered, nothing more.
        base = run(ncp_kind)
        assert out.payments["P3"] < base.payments["P3"]

    def test_crashed_worker_not_fined(self, ncp_kind):
        # A crash is a fault, not an offence: metered partial work is
        # reimbursed at the bid rate and no fine is levied.
        out = run(ncp_kind, fault_plan=crash_plan("P3", 0.5))
        assert out.payments["P3"] > 0
        for v in out.verdicts:
            assert v.fines == ()

    def test_makespan_inflates(self, ncp_kind):
        base = run(ncp_kind, fault_plan=FaultPlan(messages=(
            MessageFault(action="drop", probability=0.0),)))
        out = run(ncp_kind, fault_plan=crash_plan("P3", 0.5))
        assert out.makespan_realized > base.makespan_realized

    def test_bit_for_bit_reproducible(self, ncp_kind):
        a = run(ncp_kind, fault_plan=crash_plan("P3", 0.5))
        b = run(ncp_kind, fault_plan=crash_plan("P3", 0.5))
        assert a == b

    def test_timed_crash_also_degrades(self):
        out = run(fault_plan=FaultPlan(crashes=(
            CrashFault("P2", at_time=0.5),)))
        assert out.completed and out.degraded
        assert out.crashed == ("P2",)
        assert_ledger_conserved(out)


class TestOriginatorCrash:
    def test_unrecoverable(self, ncp_kind):
        m = len(W)
        orig = f"P{ncp_kind.originator_index(m) + 1}"
        out = run(ncp_kind, fault_plan=crash_plan(orig, 0.5))
        assert not out.completed
        assert out.degraded
        assert orig in out.crashed
        # Nobody gets paid for an aborted job; sunk costs stay sunk.
        assert all(p == 0.0 for p in out.payments.values())


class TestBiddingCrash:
    def test_silent_bidder_becomes_abstention(self):
        out = run(fault_plan=FaultPlan(crashes=(
            CrashFault("P2", phase=Phase.BIDDING),)))
        assert out.completed
        assert "P2" not in out.participants
        assert out.alpha.get("P2", 0.0) == 0.0
        assert out.payments.get("P2", 0.0) == 0.0
        assert_ledger_conserved(out)

    def test_too_few_survivors_aborts(self):
        out = DLSBLNCP([2.0, 3.0], NetworkKind.NCP_FE, Z,
                       config=EngineConfig(fault_plan=FaultPlan(crashes=(
                           CrashFault("P2", phase=Phase.BIDDING),)))).run()
        assert not out.completed


class TestPaymentPhaseCrash:
    def test_full_payment_no_vector(self, ncp_kind):
        out = run(ncp_kind, fault_plan=FaultPlan(crashes=(
            CrashFault("P3", phase=Phase.COMPUTING_PAYMENTS),)))
        assert out.completed
        assert out.degraded
        assert out.crashed == ("P3",)
        assert out.reallocations == {}   # work was already done
        # Did all its work, so it is paid like the fault-free run.
        base = run(ncp_kind)
        assert out.payments["P3"] == pytest.approx(base.payments["P3"])
        assert_ledger_conserved(out)


class TestDropRecovery:
    @pytest.mark.parametrize("mode", ["commit", "naive"])
    def test_bounded_retry_recovers(self, mode):
        plan = FaultPlan(seed=7, messages=(
            MessageFault(action="drop", probability=0.3),))
        out = run(bidding_mode=mode, fault_plan=plan)
        assert out.completed
        assert not out.degraded
        assert out.traffic.retries > 0
        assert len(out.participants) == len(W)
        assert_ledger_conserved(out)

    def test_delay_recovered_too(self):
        plan = FaultPlan(seed=3, messages=(
            MessageFault(action="delay", probability=0.5, delay=0.1),))
        out = run(bidding_mode="commit", fault_plan=plan)
        assert out.completed
        assert_ledger_conserved(out)

    def test_atomic_mode_completes_under_heavy_drop(self):
        # Atomic broadcast carries the bids, so even at 90% unicast
        # loss only the point-to-point payment vectors are at risk.
        # When the retry budget is exhausted the sender is declared
        # unresponsive — a fault, not an offence — so no fines and the
        # ledger still conserves.
        plan = FaultPlan(seed=7, messages=(
            MessageFault(action="drop", probability=0.9),))
        out = run(bidding_mode="atomic", fault_plan=plan)
        assert out.completed
        assert len(out.participants) == len(W)
        assert all(v.case.startswith("unresponsive:") for v in out.verdicts)
        assert all(v.fines == () for v in out.verdicts)
        assert_ledger_conserved(out)


class TestEvidenceRetry:
    """Evidence traffic (claims, forwarded bid vectors) is a fault
    target like any other control message: a dropped claim must be
    retried within the evidence window, not silently vanish before the
    referee sees it."""

    def test_dropped_claim_is_retried_and_still_convicts(self):
        from repro.agents.behaviors import AgentBehavior, Deviation
        from repro.network.messages import MessageKind

        behaviors = {1: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})}
        base = run(behaviors=behaviors)
        plan = FaultPlan(messages=(
            MessageFault(action="drop", kind=MessageKind.CLAIM,
                         max_applications=1),))
        out = run(behaviors=behaviors, fault_plan=plan)
        assert out.traffic.retries > 0
        # The retry made the drop invisible to the judgement itself.
        assert [v.case for v in out.verdicts] == [v.case for v in base.verdicts]
        assert out.verdicts and out.verdicts[0].fined_names == ("P2",)
        assert_ledger_conserved(out)

    def test_dropped_bid_vector_is_retried(self):
        # The allocation dispute forwards both bid vectors to the
        # referee; a short-changing originator is still convicted when
        # the first vector is eaten by the wire.
        from repro.agents.behaviors import AgentBehavior, Deviation
        from repro.network.messages import MessageKind

        behaviors = {0: AgentBehavior(
            deviations={Deviation.SHORT_ALLOCATION},
            deviation_params={"victim": "P2", "delta_blocks": 3})}
        plan = FaultPlan(messages=(
            MessageFault(action="drop", kind=MessageKind.BID_VECTOR,
                         max_applications=1),))
        out = run(behaviors=behaviors, fault_plan=plan)
        assert out.traffic.retries > 0
        assert out.verdicts and out.verdicts[0].fined_names == ("P1",)
        assert_ledger_conserved(out)


class TestMeterOutage:
    def test_billing_falls_back_to_bid(self, ncp_kind):
        out = run(ncp_kind, fault_plan=FaultPlan(meter_outages=("P3",)))
        assert out.completed
        assert not out.degraded
        assert out.verdicts == ()       # honest agents must not be fined
        assert_ledger_conserved(out)


class TestStalledTransfer:
    def test_stall_slows_but_completes(self):
        plan = FaultPlan(stalls=(StallFault(recipient="P3", factor=2.0),))
        base = run(fault_plan=FaultPlan(messages=(
            MessageFault(action="drop", probability=0.0),)))
        out = run(fault_plan=plan)
        assert out.completed
        assert out.makespan_realized >= base.makespan_realized
        assert_ledger_conserved(out)


class TestLedgerInvariant:
    """sum(balances) == 0 across randomized fault-free and faulty runs."""

    def test_randomized_runs_conserve(self, ncp_kind):
        rng = random.Random(2024)
        for trial in range(8):
            m = rng.randint(3, 6)
            w = [rng.uniform(1.0, 9.0) for _ in range(m)]
            z = rng.uniform(0.1, min(w) * 0.9)
            plans = [None]
            victim = f"P{rng.randrange(m) + 1}"
            plans.append(FaultPlan(crashes=(CrashFault(
                victim, phase=Phase.PROCESSING_LOAD,
                progress=rng.random()),)))
            plans.append(FaultPlan(seed=trial, messages=(
                MessageFault(action="drop", probability=0.2),)))
            for plan in plans:
                mode = "commit" if plan and plan.messages else "atomic"
                out = DLSBLNCP(w, ncp_kind, z,
                               config=EngineConfig(bidding_mode=mode,
                                                   fault_plan=plan)).run()
                assert_ledger_conserved(out)


class TestSweeps:
    def test_crash_sweep_shape(self):
        from repro.analysis.resilience import crash_sweep

        samples = crash_sweep(W, NetworkKind.NCP_FE, Z,
                              progresses=(0.5,), num_blocks=60)
        assert len(samples) == len(W) - 1
        for s in samples:
            assert s.completed and s.degraded
            assert s.ledger_error < TOL
            assert s.makespan_inflation > 0

    def test_drop_sweep_zero_rate_is_flat(self):
        from repro.analysis.resilience import drop_sweep

        samples = drop_sweep(W, NetworkKind.NCP_FE, Z, rates=(0.0,),
                             seeds=range(2), num_blocks=60)
        for s in samples:
            assert s.completed
            assert s.makespan_inflation == pytest.approx(0.0)
            assert s.retries == 0
            assert s.welfare_loss == pytest.approx(0.0)


class TestCli:
    def test_protocol_crash_flag(self, capsys):
        from repro.cli import main

        assert main(["protocol", "--kind", "ncp-fe", "--z", "0.4",
                     "2", "3", "5", "4", "--crash", "2:0.5"]) == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "P3" in out

    def test_resilience_command(self, capsys):
        from repro.cli import main

        assert main(["resilience", "--kind", "ncp-fe", "--z", "0.4",
                     "2", "3", "5", "--progress", "0.5",
                     "--drop-rates", "0.2", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "crash" in out and "drop" in out
        assert "ledger" in out

    def test_bad_crash_spec(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["protocol", "--kind", "ncp-fe", "--z", "0.4",
                  "2", "3", "5", "--crash", "nope"])
