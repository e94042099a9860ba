"""Phase 3 — Processing Load (Section 4), plus crash degradation.

Agents execute at their chosen (>= true) rate; tamper-proof meters
record ``phi_i``; the referee broadcasts the readings.  Under an armed
fault plan the runner also detects mid-run crash-stops and degrades
gracefully: the referee declares silent workers ``UNRESPONSIVE``, and —
if the originator survives — the closed form is re-solved over the
survivors and the unfinished blocks are re-shipped as real one-port
transfers.  Degradation used to be a forked copy of the settlement code
(``_run_degraded``); it is now an ordinary outcome: the runner fills
the context's payment/phi/cost fields and hands control straight to the
coordinator's single ``settle``.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.blocks import quantize_blocks
from repro.dlt.platform import NetworkKind
from repro.dlt.timing import makespan
from repro.network.messages import Message, MessageKind
from repro.protocol.context import (
    REFEREE,
    EngagementContext,
    PhaseOutcome,
    PhaseRunner,
)
from repro.protocol.phases import Phase

__all__ = ["ProcessingRunner"]


def metered_w(ctx: EngagementContext, name: str) -> float:
    """Observed per-unit time: the meter, or the bid when it is out."""
    if ctx.fault_plan is not None and ctx.fault_plan.meter_out(name):
        return ctx.bids[name]
    return ctx.w_exec[name]


class ProcessingRunner(PhaseRunner):
    """Run the Processing-Load phase over the context's bus."""

    phase = Phase.PROCESSING_LOAD

    def run(self, ctx: EngagementContext) -> PhaseOutcome:
        mark = len(ctx.verdicts)
        active = ctx.active
        ctx.w_exec = {a.name: a.exec_value for a in ctx.participants}
        if ctx.fault_plan:
            mid = self._mid_run_crashes(ctx)
            if mid:
                self._degrade(ctx, mid)
                return self._outcome(ctx, None, mark)
        # Tamper-proof meters: the engine (not the agent) records the
        # actually elapsed per-assignment time phi_i = alpha_i * w~_i —
        # falling back to the bid-asserted value where a meter is out.
        ctx.w_obs = {n: metered_w(ctx, n) for n in active}
        ctx.phi = {n: ctx.alpha_map[n] * ctx.w_obs[n] for n in active}
        ctx.bus.broadcast(Message(MessageKind.METER, REFEREE, ("*",),
                                  {n: ctx.phi[n] for n in active}))
        if ctx.fault_plan:
            # Retry backoffs and stalls shifted the physical schedule;
            # read the realized makespan off the event clock instead of
            # the closed-form timing.
            ctx.realized = max(ctx.ready[n] + ctx.alpha_map[n] * ctx.w_exec[n]
                               for n in active)
        else:
            ctx.realized = makespan(
                ctx.alpha, ctx.net_bids,
                w_exec=np.array([ctx.w_exec[n] for n in active]))
        return self._outcome(ctx, Phase.COMPUTING_PAYMENTS, mark)

    # ------------------------------------------------------------------
    # fault degradation
    # ------------------------------------------------------------------

    @staticmethod
    def _mid_run_crashes(ctx: EngagementContext) -> dict[str, float]:
        """Processors that die with work in hand: name -> fraction done.

        Phase-triggered crashes at Allocating-Load die with nothing
        done; mid-Processing crashes complete their declared
        ``progress``.  Timed crashes are mapped onto each worker's
        actual compute window ``[ready, ready + alpha*w~]`` — a crash
        after the window closes is a payments-phase silence handled
        downstream, not here.
        """
        out: dict[str, float] = {}
        for name in ctx.active:
            c = ctx.fault_plan.crash_for(name)
            if c is None:
                continue
            if c.phase is not None:
                if c.phase is Phase.ALLOCATING_LOAD:
                    out[name] = 0.0
                elif c.phase is Phase.PROCESSING_LOAD:
                    out[name] = float(c.progress)
                continue
            t = float(c.at_time)
            if t <= 0:
                continue  # silent bidder, already excluded
            start = ctx.ready[name]
            duration = ctx.alpha_map[name] * ctx.w_exec[name]
            if t >= start + duration:
                continue  # finished before dying
            done = 0.0 if duration <= 0 else (t - start) / duration
            out[name] = max(0.0, min(1.0, done))
        return out

    def _degrade(self, ctx: EngagementContext, mid: dict[str, float]) -> None:
        """Graceful degradation after mid-run crash-stops.

        The referee declares each silent worker ``UNRESPONSIVE`` once
        its *bid-asserted* finishing time plus the grace period passes
        (it holds no private values, so the bid is its only estimate).
        If the originator survives, it re-solves the closed form over
        the survivors and ships the crashed workers' unfinished blocks
        as real one-port transfers — the recovery traffic and the
        inflated makespan are measured, not modelled.

        Settlement is the documented emergency scheme, conserving the
        double-entry ledger: survivors receive their regular mechanism
        payment plus reimbursement at their own bid rate for the extra
        load; a crashed worker is paid for its metered completed work
        at its bid rate, with no bonus and no fine (a crash is a fault,
        not a strategic deviation — fining it would make the mechanism
        punish hardware failure).  The runner only *computes* the
        scheme; billing and the ledger movements happen in the
        coordinator's shared ``settle``, the same path every run takes.
        """
        active = ctx.active
        alpha_map, ready, w_exec = ctx.alpha_map, ctx.ready, ctx.w_exec
        originator = ctx.originator
        crashed = [n for n in active if n in mid]
        survivors = [n for n in active if n not in mid]

        # Detection: latest bid-asserted finish among the dead + grace.
        expected = max(ready[c] + alpha_map[c] * ctx.bids[c] for c in crashed)
        t_detect = max(expected + ctx.deadlines.processing_grace,
                       ctx.bus.queue.now)
        ctx.bus.queue.run_until(t_detect)
        for c in crashed:
            ctx.apply_verdict(ctx.referee.judge_unresponsive(c, survivors))

        ctx.degraded = True
        ctx.crashed = tuple(crashed)
        originator_down = originator.name in mid
        if originator_down or not survivors:
            # The data holder died (or nobody is left): the unfinished
            # load is unrecoverable.  Survivors complete their own
            # fractions but the engagement cannot settle — no payments
            # flow, the ledger stays trivially conserved, and the
            # processors bear their processing cost as sunk.
            ctx.phi = {n: mid.get(n, 1.0) * alpha_map[n] * w_exec[n]
                       for n in active}
            ctx.costs = dict(ctx.phi)
            ctx.completed = False
            ctx.terminal_phase = Phase.PROCESSING_LOAD
            return

        # Survivor re-allocation: re-solve the closed form over the
        # surviving cohort (allocation order preserved, so the
        # originator keeps its NCP-FE/NFE position) and re-ship the
        # unfinished blocks.
        beta = originator.compute_allocation(survivors)
        pool: list = []
        for c in crashed:
            entitled_c = len(ctx.slices[c])
            done_blocks = int(round(mid[c] * entitled_c))
            pool.extend(ctx.slices[c][done_blocks:])
        extra_counts = dict(zip(survivors, quantize_blocks(beta, len(pool))))

        cursor = 0
        extra_done: dict[str, float] = {}
        for name in survivors:
            count = extra_counts[name]
            if count == 0:
                continue
            chunk = tuple(pool[cursor : cursor + count])
            cursor += count
            if name == originator.name:
                ctx.received[name].extend(chunk)
                extra_done[name] = ctx.bus.queue.now
                continue
            extra_done[name] = ctx.bus.transfer_load(
                originator.name, name, count / ctx.num_blocks, chunk)
        comm_done = ctx.bus.port_free_at
        ctx.bus.queue.run()
        reallocations = {n: extra_counts[n] / ctx.num_blocks
                         for n in survivors if extra_counts[n]}
        ctx.reallocations = reallocations

        # Realized makespan: each survivor finishes its original
        # fraction, then (once the extra blocks arrive — for an NFE
        # originator, once its own re-transmissions end) the grafted
        # remainder.
        finish = []
        for name in survivors:
            own = ready[name] + alpha_map[name] * w_exec[name]
            extra = reallocations.get(name, 0.0)
            if extra:
                if (name == originator.name
                        and ctx.kind is NetworkKind.NCP_NFE):
                    start2 = max(own, comm_done)
                else:
                    start2 = max(own, extra_done[name])
                finish.append(start2 + extra * w_exec[name])
            else:
                finish.append(own)
        ctx.realized = max(finish)

        # Meters over what actually ran (bid-asserted where a meter is
        # out), then the emergency settlement scheme.
        phi: dict[str, float] = {}
        costs: dict[str, float] = {}
        for n in active:
            w_o = metered_w(ctx, n)
            frac = mid.get(n)
            if frac is not None:
                phi[n] = frac * alpha_map[n] * w_o
                costs[n] = frac * alpha_map[n] * w_exec[n]
            else:
                total_n = alpha_map[n] + reallocations.get(n, 0.0)
                phi[n] = total_n * w_o
                costs[n] = total_n * w_exec[n]
        ctx.phi, ctx.costs = phi, costs
        ctx.bus.broadcast(Message(MessageKind.METER, REFEREE, ("*",),
                                  {n: phi[n] for n in active}))

        from repro.core.payments import payments as compute_payments

        w_obs = np.array([metered_w(ctx, n) for n in active])
        q = (ctx.memo.payments(ctx.net_bids, w_obs) if ctx.memo is not None
             else compute_payments(ctx.net_bids, w_obs))
        base = dict(zip(active, map(float, q)))
        payments_map = {}
        for n in survivors:
            payments_map[n] = base[n] + reallocations.get(n, 0.0) * ctx.bids[n]
        for c in crashed:
            payments_map[c] = mid[c] * alpha_map[c] * ctx.bids[c]
        ctx.payments = payments_map
        ctx.completed = True
        ctx.terminal_phase = Phase.COMPLETE
