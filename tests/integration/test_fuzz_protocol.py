"""Fuzzing the protocol with random strategy profiles.

Instead of hand-picked scenarios, draw entire behaviour profiles at
random (bid factors, execution factors, deviations, abstentions,
silent observers) and assert the *global* invariants that must hold no
matter what the agents do:

* the run always terminates with a well-formed result;
* money is conserved (balances + escrow sum to zero);
* fines only ever hit processors whose behaviour carries a deviation
  flag (Lemma 5.2 — never an honest bystander);
* abstainers end at exactly zero;
* in completed runs, the settled payments match the referee's own
  recomputation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
from repro.core.fines import FinePolicy
from repro.dlt.platform import NetworkKind
from repro.protocol.phases import Phase

pytestmark = pytest.mark.slow

# Deviations a random fuzz profile may carry.  REFUSE_REMEDY is only
# meaningful combined with SHORT_ALLOCATION on the originator; it is
# exercised separately in the catalogue tests.
FUZZ_DEVIATIONS = [
    None,
    Deviation.MULTIPLE_BIDS,
    Deviation.SHORT_ALLOCATION,
    Deviation.OVER_ALLOCATION,
    Deviation.WRONG_PAYMENTS,
    Deviation.CONTRADICTORY_PAYMENTS,
    Deviation.FALSE_ALLOCATION_CLAIM,
    Deviation.FALSE_EQUIVOCATION_CLAIM,
    Deviation.SPLIT_BIDS,
    Deviation.SILENT_OBSERVER,
]


def behavior_strategy():
    return st.builds(
        lambda bf, ef, dev, abstain: AgentBehavior(
            bid_factor=bf,
            exec_factor=ef,
            abstain=abstain,
            deviations=frozenset([dev] if dev else []),
        ),
        st.floats(min_value=0.6, max_value=1.8),
        st.floats(min_value=1.0, max_value=1.8),
        st.sampled_from(FUZZ_DEVIATIONS),
        st.booleans(),
    )


def profile_strategy(min_m=2, max_m=6):
    return st.tuples(
        st.lists(st.floats(min_value=1.0, max_value=10.0),
                 min_size=min_m, max_size=max_m),
        st.lists(behavior_strategy(), min_size=min_m, max_size=max_m),
        st.sampled_from([NetworkKind.NCP_FE, NetworkKind.NCP_NFE]),
        st.floats(min_value=0.05, max_value=0.4),
        st.sampled_from(["atomic", "commit", "naive"]),
    ).map(lambda t: (t[0][: min(len(t[0]), len(t[1]))],
                     t[1][: min(len(t[0]), len(t[1]))], t[2],
                     t[3] * min(t[0][: min(len(t[0]), len(t[1]))]),
                     t[4]))


def run_profile(w, behaviors, kind, z, bidding_mode="atomic"):
    mech = DLSBLNCP(list(w), kind, z, config=EngineConfig(
        behaviors=list(behaviors), policy=FinePolicy(2.0),
        bidding_mode=bidding_mode))
    return mech, mech.run()


class TestFuzzInvariants:
    @given(profile_strategy())
    @settings(max_examples=120, deadline=None)
    def test_always_terminates_well_formed(self, profile):
        w, behaviors, kind, z, mode = profile
        mech, out = run_profile(w, behaviors, kind, z, mode)
        assert out.terminal_phase in Phase
        assert set(out.order) == {f"P{i+1}" for i in range(len(w))}
        assert set(out.utilities) == set(out.order)
        assert all(np.isfinite(v) for v in out.utilities.values())

    @given(profile_strategy())
    @settings(max_examples=120, deadline=None)
    def test_money_conserved(self, profile):
        w, behaviors, kind, z, mode = profile
        mech, out = run_profile(w, behaviors, kind, z, mode)
        escrow = mech.engine.infra.balance("escrow")
        assert sum(out.balances.values()) + escrow == pytest.approx(0.0, abs=1e-9)
        assert escrow >= -1e-12

    @given(profile_strategy())
    @settings(max_examples=120, deadline=None)
    def test_fines_never_hit_clean_agents(self, profile):
        # Lemma 5.2 under arbitrary mixtures: a fined processor always
        # carries at least one deviation flag.  (SILENT_OBSERVER and
        # abstention are legal; they are never fined.)
        w, behaviors, kind, z, mode = profile
        mech, out = run_profile(w, behaviors, kind, z, mode)
        for name in out.fined:
            idx = out.order.index(name)
            devs = behaviors[idx].deviations - {Deviation.SILENT_OBSERVER}
            assert devs, (name, behaviors[idx])

    @given(profile_strategy())
    @settings(max_examples=120, deadline=None)
    def test_abstainers_end_at_zero(self, profile):
        w, behaviors, kind, z, mode = profile
        mech, out = run_profile(w, behaviors, kind, z, mode)
        for i, b in enumerate(behaviors):
            if b.abstain:
                name = f"P{i+1}"
                assert out.utilities[name] == 0.0
                assert out.balances[name] == 0.0

    @given(profile_strategy())
    @settings(max_examples=80, deadline=None)
    def test_completed_runs_settle_recomputed_payments(self, profile):
        from repro.core.payments import payments as compute_payments
        from repro.dlt.platform import BusNetwork

        w, behaviors, kind, z, mode = profile
        mech, out = run_profile(w, behaviors, kind, z, mode)
        if not out.completed or len(out.participants) < 2:
            return
        active = list(out.participants)
        bids = [out.bids[n] for n in active]
        agents = {a.name: a for a in mech.agents}
        w_exec = np.array([agents[n].exec_value for n in active])
        net = BusNetwork(tuple(bids), z, kind, tuple(active))
        q = compute_payments(net, w_exec)
        for name, qi in zip(active, q):
            assert out.payments[name] == pytest.approx(float(qi))
