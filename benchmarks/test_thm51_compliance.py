"""E8 — Lemmas 5.1-5.2, Corollary 5.1, Theorem 5.1: compliance.

Runs the full distributed protocol once per offence in the Section 4
catalogue, for both NCP system models, and reports: termination phase,
who was fined, the deviant's net utility versus its honest
counterfactual, and the informers' rewards.  The paper's claims:

* every deviation is detected and only the deviant is fined (L5.2);
* with F >= sum of compensations, deviating strictly reduces utility
  (L5.1), so processors comply (T5.1);
* without a cheater there are no rewards (C5.1).
"""

import pytest

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.analysis.reporting import format_table
from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
from repro.core.fines import FinePolicy
from repro.dlt.platform import NetworkKind

W = [2.0, 3.0, 5.0, 4.0]
Z = 0.4


def catalogue(kind):
    lo = 0 if kind is NetworkKind.NCP_FE else len(W) - 1
    lo_name = f"P{lo + 1}"
    other = 1 if lo != 1 else 2
    other_name = f"P{other + 1}"
    return [
        ("multiple-bids", other_name,
         {other: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})}),
        ("short-allocation", lo_name,
         {lo: AgentBehavior(deviations={Deviation.SHORT_ALLOCATION},
                            deviation_params={"victim": other_name,
                                              "delta_blocks": 3})}),
        ("over-allocation", lo_name,
         {lo: AgentBehavior(deviations={Deviation.OVER_ALLOCATION},
                            deviation_params={"victim": other_name,
                                              "delta_blocks": 3})}),
        ("false-allocation-claim", other_name,
         {other: AgentBehavior(deviations={Deviation.FALSE_ALLOCATION_CLAIM})}),
        ("false-equivocation-claim", other_name,
         {other: AgentBehavior(deviations={Deviation.FALSE_EQUIVOCATION_CLAIM},
                               deviation_params={"victim": lo_name})}),
        ("wrong-payments", other_name,
         {other: AgentBehavior(deviations={Deviation.WRONG_PAYMENTS})}),
        ("contradictory-payments", other_name,
         {other: AgentBehavior(deviations={Deviation.CONTRADICTORY_PAYMENTS})}),
    ]


def run_catalogue(kind):
    honest = DLSBLNCP(W, kind, Z,
                      config=EngineConfig(policy=FinePolicy(2.0))).run()
    rows = []
    for case, deviant, behaviors in catalogue(kind):
        out = DLSBLNCP(W, kind, Z, config=EngineConfig(
            behaviors=behaviors, policy=FinePolicy(2.0))).run()
        rows.append({
            "case": case,
            "deviant": deviant,
            "phase": out.terminal_phase.name,
            "fined": dict(out.fined),
            "u_deviant": out.utilities[deviant],
            "u_honest_counterfactual": honest.utilities[deviant],
            "informer_reward": max(
                (out.balances[n] - (out.payments.get(n, 0.0))
                 for n in out.order if n != deviant), default=0.0),
        })
    return honest, rows


@pytest.mark.parametrize("kind", [NetworkKind.NCP_FE, NetworkKind.NCP_NFE],
                         ids=lambda k: k.value)
def test_thm51_compliance_catalogue(benchmark, report, kind):
    honest, rows = benchmark.pedantic(run_catalogue, args=(kind,),
                                      rounds=1, iterations=1)
    for r in rows:
        assert list(r["fined"]) == [r["deviant"]], r["case"]   # Lemma 5.2
        assert r["u_deviant"] < r["u_honest_counterfactual"], r["case"]  # L5.1

    # Corollary 5.1: honest run has no fines, no rewards.
    assert honest.fined == {}
    for name in honest.order:
        assert honest.balances[name] == pytest.approx(honest.payments[name])

    report(format_table(
        ("offence", "deviant", "terminates in", "U(deviate)", "U(comply)"),
        [(r["case"], r["deviant"], r["phase"], r["u_deviant"],
          r["u_honest_counterfactual"]) for r in rows],
        title=f"Offence catalogue on {kind.value} (m={len(W)}, z={Z}, "
              f"F = 2 x sum of compensations)"))


def test_thm51_detection_scales_with_m(benchmark, report):
    """Detection works regardless of system size."""

    def sweep():
        import numpy as np

        rows = []
        rng = np.random.default_rng(1)
        for m in (3, 6, 12, 16):
            w = list(rng.uniform(1.0, 10.0, m))
            out = DLSBLNCP(w, NetworkKind.NCP_FE, 0.3, config=EngineConfig(
                behaviors={m // 2: AgentBehavior(
                    deviations={Deviation.MULTIPLE_BIDS})},
                policy=FinePolicy(2.0))).run()
            deviant = f"P{m // 2 + 1}"
            rows.append((m, deviant, list(out.fined) == [deviant],
                         out.utilities[deviant]))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert all(r[2] for r in rows)
    report(format_table(("m", "deviant", "caught & only deviant fined",
                         "deviant utility"), rows,
                        title="Detection at increasing system size"))
