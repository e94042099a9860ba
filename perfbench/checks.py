"""Output checks: every unit the benchmark runs is verified, and a unit
that fails a check counts as a failed operation.

Each check takes the unit's recorded output as plain data (a v1 result
``to_dict()`` or a response envelope) and returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

from repro.api import settlement_digest

#: Largest |sum of balances| accepted as a conserved ledger.
LEDGER_TOLERANCE = 1e-6
#: Slack below zero tolerated on a truthful utility (float rounding).
UTILITY_TOLERANCE = 1e-9


def thm54_messages(m: int) -> dict[str, int]:
    """Messages per phase of an honest, fault-free engagement (atomic
    bidding): m bid broadcasts, m - 1 load shipments, one processing
    report, m payment vectors.  The referee's bill adds one at
    settlement, so the total is 3m + 1; payment vectors of length m
    make the bytes Theta(m^2) (Thm 5.4)."""
    return {"BIDDING": m, "ALLOCATING_LOAD": m - 1, "PROCESSING_LOAD": 1,
            "COMPUTING_PAYMENTS": m}


def check_engagement(record: dict, m: int) -> list[str]:
    """Checks on an honest engagement's ``EngagementResult.to_dict()``."""
    outcome = record["outcome"]
    problems = []
    if settlement_digest(outcome) != record["digest_value"]:
        problems.append("digest does not match the settlement")
    if not outcome["completed"]:
        problems.append(f"not completed (stopped in "
                        f"{outcome['terminal_phase']})")
    if outcome["verdicts"]:
        problems.append(f"verdicts against honest agents: "
                        f"{outcome['verdicts']}")
    negative = {k: u for k, u in outcome["utilities"].items()
                if u < -UTILITY_TOLERANCE}
    if negative:
        problems.append(f"truthful utility < 0 (Thm 3.2): {negative}")
    imbalance = abs(sum(outcome["balances"].values()))
    if imbalance > LEDGER_TOLERANCE:
        problems.append(f"ledger not conserved: |sum| = {imbalance:.3g}")
    expected = thm54_messages(m)
    phases = {s["phase"]: s["messages"] for s in outcome["spans"]}
    if phases != expected:
        problems.append(f"per-phase messages {phases} != Thm 5.4 "
                        f"count {expected}")
    total = outcome["traffic"]["messages"]
    if total != sum(expected.values()) + 1:
        problems.append(f"{total} messages != 3m + 1 = "
                        f"{sum(expected.values()) + 1}")
    return problems


def check_market(record: dict, rounds: int,
                 expected_digest: str | None = None) -> list[str]:
    """Checks on a ``MarketResult.to_dict()`` (a run that raised
    ``MarketError`` never gets here: it is already a failure)."""
    problems = []
    summary = record["summary"]
    if record["rounds"] != rounds or summary["rounds"] != rounds:
        problems.append(f"ran {record['rounds']} rounds, asked {rounds}")
    if summary["max_ledger_error"] > LEDGER_TOLERANCE:
        problems.append(f"ledger not conserved: max error "
                        f"{summary['max_ledger_error']:.3g}")
    if expected_digest is not None and record["digest_value"] != expected_digest:
        problems.append(f"stream digest {record['digest_value'][:16]} != "
                        f"expected {expected_digest[:16]}")
    return problems


def stream_record(slot: int, request_digest: str,
                  result_digest: str | None, code: str | None = None) -> dict:
    """One record of a served stream: identity only, never timing or
    cache flags, so a served stream and a direct one digest alike."""
    if result_digest is not None:
        return {"slot": slot, "request": request_digest, "ok": True,
                "result": result_digest}
    return {"slot": slot, "request": request_digest, "ok": False,
            "code": code or "internal"}


def compare_streams(served, direct) -> list[int]:
    """Slots whose served record differs from the direct one."""
    if len(served) != len(direct):
        raise ValueError(f"stream lengths differ: {len(served)} served, "
                         f"{len(direct)} direct")
    return [d["slot"] for s, d in zip(served, direct) if s != d]
