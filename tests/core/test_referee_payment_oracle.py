"""The referee's payment-vector check against its per-element oracle.

``Referee.judge_payment_vectors`` accepts an honest submission (a list
of exact floats equal to the referee's own vector) without converting
it element by element.  :func:`oracle_judge_payment_vectors` below is
the check as it was before that fast path: every authentic vector is
rebuilt with ``float(q)`` and compared.  The property pins that both
give the same verdict — same fines, same order, same rewards — on
honest, malformed and contradictory payloads alike.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fines import FinePolicy
from repro.core.payments import payments as compute_payments
from repro.core.referee import Fine, Referee, _no_action
from repro.crypto.pki import PKI
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.perf import ComputationCache

Z = 0.4
FINE = 10.0


def oracle_judge_payment_vectors(referee, submissions, *, participants,
                                 order, bids, w_exec, kind, z, fine):
    """The per-element check, kept verbatim as the reference."""
    fines: list[Fine] = []
    vectors: dict[str, list[float]] = {}
    for name in participants:
        msgs = submissions.get(name, [])
        authentic = [m for m in msgs
                     if referee.pki.verify(m) and m.signer == name]
        if not authentic:
            fines.append(Fine(name, fine, "missing-payment-vector"))
            continue
        payloads = {m.canonical for m in authentic}
        if len(payloads) > 1:
            fines.append(Fine(name, fine, "contradictory-payment-vectors"))
            continue
        payload = authentic[0].payload
        try:
            vectors[name] = [float(q) for q in payload["Q"]]
        except (KeyError, TypeError, ValueError):
            fines.append(Fine(name, fine, "malformed-payment-vector"))

    w = tuple(float(bids[name]) for name in order)
    exec_arr = np.array([w_exec[name] for name in order])
    correct = compute_payments(BusNetwork(w, z, kind, tuple(order)), exec_arr)
    correct_list = [float(x) for x in correct]
    for name, q in vectors.items():
        if q == correct_list:
            continue
        if len(q) != len(order) or not np.allclose(q, correct, rtol=1e-9,
                                                   atol=1e-9):
            fines.append(Fine(name, fine, "incorrect-payments"))
    if not fines:
        return _no_action("payment-verification")
    return referee._distribute("payment-verification", fines, participants)


class FloatSub(float):
    """A float subclass: equal values, not an exact ``float``."""


def _with(c, i, value):
    out = list(c)
    out[i % len(out)] = value
    return out


#: Q-vector variants, each a function of the referee's correct list.
Q_VARIANTS = {
    "honest": lambda c: list(c),
    "honest-shared": lambda c: c,
    "within-tolerance": lambda c: [x * (1 + 1e-12) for x in c],
    "wrong": lambda c: [x * 2 for x in c],
    "ints": lambda c: [int(round(x)) for x in c],
    "bools": lambda c: [bool(x) for x in c],
    "numeric-strings": lambda c: [repr(x) for x in c],
    "junk-string": lambda c: _with(c, 0, "abc"),
    "nan": lambda c: _with(c, 1, math.nan),
    "inf": lambda c: _with(c, 0, math.inf),
    "numpy-float64": lambda c: [np.float64(x) for x in c],
    "float-subclass": lambda c: [FloatSub(x) for x in c],
    "short": lambda c: c[:-1],
    "long": lambda c: list(c) + [0.0],
    "tuple": lambda c: tuple(c),
    "string": lambda c: "123",
    "dict": lambda c: {"a": 1.0},
    "none": lambda c: None,
    "scalar": lambda c: 1.0,
}

SUBMISSION_SHAPES = ("one", "two-copies", "same-object-twice",
                     "contradictory", "missing-Q", "non-dict-payload",
                     "absent", "forged")


def _submit(keys, name, other, shape, q, q_alt):
    key = keys[name]
    if shape == "absent":
        return []
    if shape == "forged":
        return [keys[other].sign({"processor": name, "Q": q})]
    if shape == "missing-Q":
        return [key.sign({"processor": name})]
    if shape == "non-dict-payload":
        return [key.sign([name, 1.0])]
    msg = key.sign({"processor": name, "Q": q})
    if shape == "two-copies":
        return [msg, key.sign({"processor": name, "Q": q})]
    if shape == "same-object-twice":
        return [msg, msg]
    if shape == "contradictory":
        return [msg, key.sign({"processor": name, "Q": q_alt})]
    return [msg]


@settings(max_examples=300)
@given(data=st.data(),
       m=st.integers(2, 4),
       kind=st.sampled_from(list(NetworkKind)),
       use_memo=st.booleans())
def test_verdict_matches_per_element_oracle(data, m, kind, use_memo):
    names = [f"P{i + 1}" for i in range(m)]
    bids = {n: data.draw(st.sampled_from([1.5, 2.0, 3.0, 5.0, 7.25]))
            for n in names}
    w_exec = {n: bids[n] * data.draw(st.sampled_from([1.0, 1.0, 1.5]))
              for n in names}
    pki = PKI()
    keys = {n: pki.register(n) for n in names}
    correct = [float(x) for x in compute_payments(
        BusNetwork(tuple(bids[n] for n in names), Z, kind, tuple(names)),
        np.array([w_exec[n] for n in names]))]

    # One list object per variant, signed by every signer that draws
    # it shared (honest agents all sign the cache's one list): the
    # referee's check-once rule must not change any verdict.
    shared = {v: make(correct) for v, make in Q_VARIANTS.items()}

    def q_for(variant):
        if data.draw(st.booleans()):
            return shared[variant]
        return Q_VARIANTS[variant](correct)

    submissions = {}
    for i, name in enumerate(names):
        variant = data.draw(st.sampled_from(sorted(Q_VARIANTS)))
        alt = data.draw(st.sampled_from(sorted(Q_VARIANTS)))
        shape = data.draw(st.sampled_from(SUBMISSION_SHAPES))
        submissions[name] = _submit(
            keys, name, names[(i + 1) % m], shape, q_for(variant),
            q_for(alt))

    kwargs = dict(participants=names, order=names, bids=bids,
                  w_exec=w_exec, kind=kind, z=Z, fine=FINE)
    referee = Referee(pki, FinePolicy(),
                      memo=ComputationCache() if use_memo else None)
    got = referee.judge_payment_vectors(submissions, **kwargs)
    want = oracle_judge_payment_vectors(Referee(pki, FinePolicy()),
                                        submissions, **kwargs)
    assert got == want


@pytest.mark.parametrize("variant", sorted(Q_VARIANTS))
def test_each_variant_matches_oracle_for_a_lone_submitter(variant):
    # Deterministic coverage of every payload kind, honest peers around it.
    names = ["P1", "P2", "P3"]
    bids = {"P1": 2.0, "P2": 3.0, "P3": 5.0}
    pki = PKI()
    keys = {n: pki.register(n) for n in names}
    correct = [float(x) for x in compute_payments(
        BusNetwork((2.0, 3.0, 5.0), Z, NetworkKind.NCP_FE),
        np.array([2.0, 3.0, 5.0]))]
    submissions = {n: [keys[n].sign({"processor": n, "Q": correct})]
                   for n in names}
    submissions["P2"] = [keys["P2"].sign(
        {"processor": "P2", "Q": Q_VARIANTS[variant](correct)})]
    kwargs = dict(participants=names, order=names, bids=bids,
                  w_exec=dict(bids), kind=NetworkKind.NCP_FE, z=Z, fine=FINE)
    got = Referee(pki).judge_payment_vectors(submissions, **kwargs)
    want = oracle_judge_payment_vectors(Referee(pki), submissions, **kwargs)
    assert got == want


@pytest.mark.parametrize("first", ["holder", "correct-copy"])
@pytest.mark.parametrize("shared", ["correct", "wrong"])
def test_one_shared_list_is_judged_like_separate_copies(first, shared):
    # Every holder of one list object gets the oracle's verdict; a wrong
    # shared list fines every holder, also after a correct list passed.
    names = ["P1", "P2", "P3", "P4", "P5"]
    bids = {"P1": 2.0, "P2": 3.0, "P3": 5.0, "P4": 1.5, "P5": 7.25}
    pki = PKI()
    keys = {n: pki.register(n) for n in names}
    correct = [float(x) for x in compute_payments(
        BusNetwork(tuple(bids[n] for n in names), Z, NetworkKind.NCP_FE,
                   tuple(names)),
        np.array([bids[n] for n in names]))]
    q = Q_VARIANTS["honest" if shared == "correct" else "wrong"](correct)
    submissions = {n: [keys[n].sign({"processor": n, "Q": q})]
                   for n in names}
    if first == "correct-copy":
        # P1's own correct list passes the full check first.
        submissions["P1"] = [keys["P1"].sign(
            {"processor": "P1", "Q": list(correct)})]
    kwargs = dict(participants=names, order=names, bids=bids,
                  w_exec=dict(bids), kind=NetworkKind.NCP_FE, z=Z, fine=FINE)
    got = Referee(pki, memo=ComputationCache()).judge_payment_vectors(
        submissions, **kwargs)
    want = oracle_judge_payment_vectors(Referee(pki), submissions, **kwargs)
    assert got == want
    holders = [n for n in names if submissions[n][0].payload["Q"] is q]
    assert len(holders) == (5 if first == "holder" else 4)
    fined = {f.who for f in got.fines if f.offence == "incorrect-payments"}
    assert fined == (set(holders) if shared == "wrong" else set())
