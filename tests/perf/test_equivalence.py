"""Memoized and independent redundancy modes are observationally equal.

The acceptance property of the perf layer: with a seeded PKI, a run
with ``redundancy="memoized"`` and a run with
``redundancy="independent"`` must be *byte-identical* on the wire (same
message log, same canonical payloads, same signatures) and must settle
identically (payments, balances, phi, fines, verdicts).  Memoization
may only remove repeated work — never change a single observable bit.
"""

import json

import numpy as np
import pytest

from repro.agents.behaviors import AgentBehavior, Deviation, abstaining
from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
from repro.core.quorum import CommitteeConfig
from repro.dlt.platform import NetworkKind
from repro.network.faults import CrashFault, FaultPlan, MessageFault
from repro.protocol.arbiter import BusArbiter, EngagementJob
from repro.protocol.phases import Phase
from repro.protocol.trace import wire_digest

SEED = 11


def wire_trace(mech):
    """The engagement's full wire log in canonical byte form."""
    from repro.crypto.signatures import SignedMessage

    lines = []
    for msg in mech.engine.bus.log:
        body = msg.body
        if isinstance(body, SignedMessage):
            rendered = (body.signer.encode(), body.canonical, body.signature)
        else:
            rendered = repr(body).encode()
        lines.append((msg.kind, msg.sender, msg.recipients, rendered,
                      msg.size_bytes))
    return lines


def run_pair(w, *, kind=NetworkKind.NCP_FE, z=0.4, **kwargs):
    outs = {}
    for mode in ("memoized", "independent"):
        mech = DLSBLNCP(w, kind, z, config=EngineConfig(
            redundancy=mode, pki_seed=SEED, **kwargs))
        outs[mode] = (mech, mech.run())
    return outs


def assert_equivalent(outs):
    (mech_m, out_m) = outs["memoized"]
    (mech_i, out_i) = outs["independent"]
    assert wire_trace(mech_m) == wire_trace(mech_i)
    assert out_m.completed == out_i.completed
    assert out_m.terminal_phase == out_i.terminal_phase
    assert out_m.verdicts == out_i.verdicts
    assert out_m.bids == out_i.bids
    assert out_m.alpha == out_i.alpha
    assert out_m.phi == out_i.phi
    assert out_m.payments == out_i.payments
    assert out_m.balances == out_i.balances
    assert out_m.utilities == out_i.utilities
    assert out_m.fine_amount == out_i.fine_amount
    assert out_m.makespan_realized == out_i.makespan_realized


class TestHonestEquivalence:
    @pytest.mark.parametrize("kind", [NetworkKind.NCP_FE, NetworkKind.NCP_NFE])
    def test_small_instance(self, kind):
        assert_equivalent(run_pair([2.0, 3.0, 5.0], kind=kind))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        w = rng.uniform(1.0, 10.0, m)
        kind = NetworkKind.NCP_FE if seed % 2 == 0 else NetworkKind.NCP_NFE
        z = float(rng.uniform(0.05, 1.0))
        assert_equivalent(run_pair(w, kind=kind, z=z))

    def test_commit_bidding_mode(self):
        assert_equivalent(run_pair([2.0, 3.0, 5.0, 4.0],
                                   bidding_mode="commit"))


class TestDeviantEquivalence:
    def test_equivocator_fined_identically(self):
        outs = run_pair([2.0, 3.0, 5.0], behaviors={
            1: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})})
        assert_equivalent(outs)
        assert not outs["memoized"][1].completed

    def test_wrong_payments_fined_identically(self):
        outs = run_pair([2.0, 3.0, 5.0], behaviors={
            2: AgentBehavior(deviations={Deviation.WRONG_PAYMENTS})})
        assert_equivalent(outs)

    def test_contradictory_payments(self):
        outs = run_pair([2.0, 3.0, 5.0], behaviors={
            0: AgentBehavior(deviations={Deviation.CONTRADICTORY_PAYMENTS})})
        assert_equivalent(outs)

    @pytest.mark.parametrize("deviation", [Deviation.WRONG_PAYMENTS,
                                           Deviation.CONTRADICTORY_PAYMENTS])
    def test_deviants_leave_the_shared_q_list_intact(self, deviation,
                                                     monkeypatch):
        # Honest agents sign the cache's one Q list and the referee
        # accepts that object once; deviants must build their own lists
        # and never write into the shared one.
        from repro.perf import ComputationCache

        served = []
        original = ComputationCache.payments_payload

        def recording(memo, network, w_exec):
            wire = original(memo, network, w_exec)
            served.append((memo, network, np.array(w_exec), wire))
            return wire

        monkeypatch.setattr(ComputationCache, "payments_payload", recording)
        for index in (0, 2, 4):
            mech = DLSBLNCP([2.0, 3.0, 5.0, 4.0, 1.5], NetworkKind.NCP_FE, 0.4,
                            config=EngineConfig(pki_seed=SEED, behaviors={
                                index: AgentBehavior(deviations={deviation})}))
            out = mech.run()
            assert out.verdicts and mech.engine.bid_board.intact
        assert served
        for memo, network, w_exec, (q_list, q_json) in served:
            assert q_list == [float(x) for x in memo.payments(network, w_exec)]
            assert json.loads(q_json) == q_list


class TestFaultEquivalence:
    def test_mid_processing_crash(self):
        plan = FaultPlan(crashes=(
            CrashFault("P3", phase=Phase.PROCESSING_LOAD, progress=0.5),))
        assert_equivalent(run_pair([2.0, 3.0, 5.0, 4.0], fault_plan=plan))

    def test_message_drops_with_retry(self):
        plan = FaultPlan(seed=7, messages=(
            MessageFault(action="drop", probability=0.2),))
        assert_equivalent(run_pair([2.0, 3.0, 5.0, 4.0], fault_plan=plan,
                                   bidding_mode="commit"))

    def test_crash_and_delay_mix(self):
        plan = FaultPlan(seed=3,
                         crashes=(CrashFault("P2", at_time=0.5),),
                         messages=(MessageFault(action="delay",
                                                probability=0.3, delay=0.25),))
        assert_equivalent(run_pair([2.0, 3.0, 5.0], fault_plan=plan))


class TestCacheCounters:
    def test_memoized_run_reports_cache_activity(self):
        (_, out) = run_pair([2.0, 3.0, 5.0, 4.0])["memoized"]
        t = out.traffic
        assert t.memo_hits > 0
        assert t.memo_misses > 0
        assert t.sig_cache_hits > 0
        assert t.sig_cache_misses > 0
        # Sharing means the cache never loses: each result is computed
        # at most once, and every signature is checked at most once.
        assert t.memo_hits >= t.memo_misses
        assert t.sig_cache_hits > t.sig_cache_misses

    def test_independent_run_reports_no_memo_activity(self):
        (_, out) = run_pair([2.0, 3.0, 5.0, 4.0])["independent"]
        assert out.traffic.memo_hits == 0
        assert out.traffic.memo_misses == 0

    def test_invalid_redundancy_rejected(self):
        with pytest.raises(ValueError, match="redundancy"):
            DLSBLNCP([2.0, 3.0], NetworkKind.NCP_FE, 0.4,
                     config=EngineConfig(redundancy="sometimes"))


# ---------------------------------------------------------------------------
# The shared bid board (memoized atomic Bidding) against the per-observer
# procedure (redundancy="independent"): same wire, same settlement, same
# verdicts, and the same signature-cache accounting, delivery for delivery.
# ---------------------------------------------------------------------------

def board_pair(w, *, kind=NetworkKind.NCP_FE, z=0.4, **config):
    outs = {}
    for mode in ("memoized", "independent"):
        mech = DLSBLNCP(w, kind, z, config=EngineConfig(
            redundancy=mode, pki_seed=SEED, **config))
        outs[mode] = (mech, mech.run())
    return outs


def assert_board_equivalent(outs):
    assert_equivalent(outs)
    (mech_m, out_m) = outs["memoized"]
    (mech_i, out_i) = outs["independent"]
    assert wire_digest(mech_m.engine.bus.log) == \
        wire_digest(mech_i.engine.bus.log)
    assert out_m.traffic.sig_cache_hits == out_i.traffic.sig_cache_hits
    assert out_m.traffic.sig_cache_misses == out_i.traffic.sig_cache_misses
    assert [(s.phase, s.messages, s.bytes, s.sig_cache_hits,
             s.sig_cache_misses) for s in out_m.spans] == \
        [(s.phase, s.messages, s.bytes, s.sig_cache_hits,
          s.sig_cache_misses) for s in out_i.spans]
    # Per-observer views: what each agent would claim or hand over.
    order = list(out_m.participants)
    for a_m, a_i in zip(mech_m.agents, mech_i.agents):
        assert a_m.detect_equivocations() == a_i.detect_equivocations()
        assert a_m.fabricate_equivocation_claim(order) == \
            a_i.fabricate_equivocation_claim(order)
        if a_m.name in order:
            assert a_m.bid_vector_messages(order) == \
                a_i.bid_vector_messages(order)


def _deviant(index, deviation, **params):
    return {index: AgentBehavior(deviations={deviation},
                                 deviation_params=params)}


class TestBidBoardEquivalence:
    def test_memoized_atomic_engagement_uses_the_board(self):
        (mech_m, _), (mech_i, _) = board_pair([2.0, 3.0, 5.0]).values()
        assert mech_m.engine.bid_board is not None
        assert mech_i.engine.bid_board is None

    @pytest.mark.parametrize("kind", [NetworkKind.NCP_FE, NetworkKind.NCP_NFE])
    def test_honest(self, kind):
        assert_board_equivalent(board_pair([2.0, 3.0, 5.0, 4.0, 6.0],
                                           kind=kind))

    @pytest.mark.parametrize("index", [0, 2, 4])
    def test_multiple_bids(self, index):
        outs = board_pair([2.0, 3.0, 5.0, 4.0, 6.0],
                          behaviors=_deviant(index, Deviation.MULTIPLE_BIDS))
        assert_board_equivalent(outs)
        (mech, out) = outs["memoized"]
        assert not out.completed
        assert out.verdicts[0].fines[0].who == f"P{index + 1}"
        # The equivocator never hears its own broadcasts: it holds no
        # evidence against itself, exactly as with a private archive.
        deviant = mech.agents[index]
        assert deviant.detect_equivocations() == []
        assert deviant._bid_archive[deviant.name][0].payload["bid"] == \
            deviant.bid

    def test_two_equivocators(self):
        outs = board_pair([2.0, 3.0, 5.0, 4.0], behaviors={
            1: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS}),
            3: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})})
        assert_board_equivalent(outs)
        mech = outs["memoized"][0]
        assert [s for s, _ in mech.agents[1].detect_equivocations()] == ["P4"]
        assert [s for s, _ in mech.agents[3].detect_equivocations()] == ["P2"]

    def test_silent_observer_next_to_an_equivocator(self):
        outs = board_pair([2.0, 3.0, 5.0, 4.0], behaviors={
            0: AgentBehavior(deviations={Deviation.SILENT_OBSERVER}),
            2: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})})
        assert_board_equivalent(outs)
        assert outs["memoized"][1].verdicts[0].case == \
            outs["independent"][1].verdicts[0].case

    def test_false_equivocation_claim(self):
        assert_board_equivalent(board_pair(
            [2.0, 3.0, 5.0, 4.0],
            behaviors=_deviant(1, Deviation.FALSE_EQUIVOCATION_CLAIM)))

    def test_manipulated_bid_vector(self):
        assert_board_equivalent(board_pair(
            [2.0, 3.0, 5.0, 4.0],
            behaviors=_deviant(1, Deviation.MANIPULATED_BID_VECTOR)))

    def test_wrong_payments_reads_bid_vectors(self):
        outs = board_pair([2.0, 3.0, 5.0, 4.0],
                          behaviors=_deviant(2, Deviation.WRONG_PAYMENTS))
        assert_board_equivalent(outs)
        assert outs["memoized"][1].verdicts[0].fines[0].offence == \
            "incorrect-payments"

    @pytest.mark.parametrize("kind", [NetworkKind.NCP_FE, NetworkKind.NCP_NFE])
    def test_abstainer(self, kind):
        outs = board_pair([2.0, 3.0, 5.0, 4.0], kind=kind,
                          behaviors={1: abstaining()})
        assert_board_equivalent(outs)
        (mech, out) = outs["memoized"]
        assert "P2" not in out.participants
        # The abstainer still listened: it holds every bidder's bid.
        assert sorted(mech.agents[1]._bid_archive) == ["P1", "P3", "P4"]

    def test_committee_n4_f1(self):
        committee = CommitteeConfig(size=4, faults=1)
        assert_board_equivalent(board_pair([2.0, 3.0, 5.0, 4.0],
                                           committee=committee))
        assert_board_equivalent(board_pair(
            [2.0, 3.0, 5.0, 4.0], committee=committee,
            behaviors=_deviant(2, Deviation.WRONG_PAYMENTS)))

    def test_arbiter_rr_crash_armed_next_to_clean(self):
        crash = FaultPlan(crashes=(
            CrashFault("P3", phase=Phase.PROCESSING_LOAD, progress=0.5),))
        runs = {}
        for mode in ("memoized", "independent"):
            jobs = (
                EngagementJob("E1", (2.0, 3.0, 5.0, 4.0), NetworkKind.NCP_FE,
                              EngineConfig(redundancy=mode, pki_seed=SEED)),
                EngagementJob("E2", (3.0, 2.0, 4.0), NetworkKind.NCP_NFE,
                              EngineConfig(redundancy=mode, pki_seed=SEED,
                                           fault_plan=crash)),
            )
            runs[mode] = BusArbiter(0.4, jobs, policy="rr").run()
        out_m, out_i = runs["memoized"], runs["independent"]
        assert out_m.wire_digests == out_i.wire_digests
        for eid in ("E1", "E2"):
            r_m, r_i = out_m.results[eid], out_i.results[eid]
            assert r_m.payments == r_i.payments
            assert r_m.balances == r_i.balances
            assert r_m.verdicts == r_i.verdicts
            assert r_m.crashed == r_i.crashed
            assert r_m.traffic.sig_cache_hits == r_i.traffic.sig_cache_hits
            assert r_m.traffic.sig_cache_misses == \
                r_i.traffic.sig_cache_misses
        assert out_m.results["E2"].crashed == ("P3",)

    def test_crash_armed_engagement_keeps_private_archives(self):
        plan = FaultPlan(crashes=(
            CrashFault("P3", phase=Phase.PROCESSING_LOAD, progress=0.5),))
        outs = board_pair([2.0, 3.0, 5.0, 4.0], fault_plan=plan)
        assert outs["memoized"][0].engine.bid_board is None
        assert_board_equivalent(outs)

    def test_point_to_point_modes_keep_private_archives(self):
        for mode in ("commit", "naive"):
            mech = DLSBLNCP([2.0, 3.0, 5.0], NetworkKind.NCP_FE, 0.4,
                            config=EngineConfig(bidding_mode=mode))
            assert mech.engine.bid_board is None


class TestBidBoardWorkCounts:
    """Deterministic work counters for the board path (tier-1 gate)."""

    M = 64

    def _run(self, redundancy="memoized"):
        """Run one m = 64 engagement, counting three O(m) work items:
        ``observe_bid`` calls, ordered bid tuple builds and the
        referee's full per-element ``Q`` checks."""
        import repro.core.referee as referee_mod
        from repro.agents.board import BidBoard
        from repro.agents.processor import ProcessorAgent

        rng = np.random.default_rng(5)
        w = [float(x) for x in rng.uniform(1.0, 10.0, self.M)]
        counts = {"observe_bid": 0, "ordered": 0, "_exact_match": 0}
        patched = [(ProcessorAgent, "observe_bid"), (BidBoard, "ordered"),
                   (referee_mod, "_exact_match")]
        originals = [getattr(owner, attr) for owner, attr in patched]

        def counting(attr, original):
            def wrapper(*args):
                counts[attr] += 1
                return original(*args)
            return wrapper

        for (owner, attr), original in zip(patched, originals):
            setattr(owner, attr, counting(attr, original))
        try:
            out = DLSBLNCP(w, NetworkKind.NCP_FE, 0.3, config=EngineConfig(
                redundancy=redundancy, pki_seed=SEED)).run()
        finally:
            for (owner, attr), original in zip(patched, originals):
                setattr(owner, attr, original)
        return counts, out

    def test_observe_bid_calls_at_most_2m(self):
        counts, out = self._run()
        assert out.completed
        assert counts["observe_bid"] <= 2 * self.M

    def test_independent_mode_keeps_the_m_squared_procedure(self):
        counts, _ = self._run("independent")
        assert counts["observe_bid"] == self.M * self.M

    def test_payments_build_the_bid_tuple_and_check_q_once(self):
        counts, out = self._run()
        assert out.completed and not out.verdicts
        assert (counts["ordered"], counts["_exact_match"]) == (1, 1)

    def test_independent_mode_builds_and_checks_per_agent(self):
        counts, out = self._run("independent")
        assert out.completed and not out.verdicts
        assert (counts["ordered"], counts["_exact_match"]) == (self.M, self.M)

    def test_sig_cache_accounting_is_per_logical_delivery(self):
        _, out = self._run()
        m = self.M
        # Bidding: one real verification per bid, one cache hit per
        # other listener (m - 1) and one per canonical-profile check.
        (bidding,) = [s for s in out.spans if s.phase == "BIDDING"]
        assert (bidding.sig_cache_hits, bidding.sig_cache_misses) == (m * m, m)
        # Whole engagement: the figures the per-observer procedure
        # reported before the board existed.
        assert (out.traffic.sig_cache_hits, out.traffic.sig_cache_misses) \
            == (4096, 128)
        assert out.traffic.messages == 3 * m + 1
