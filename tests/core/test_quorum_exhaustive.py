"""Exhaustive small-scope check of the quorum round loop (N = 4, f = 1).

Every assignment of {honest, silent, equivocate, fine-steal} to the four
seats, under every set of at most two down members, adjudicates one
equivocation case with a fine.  A member is faulty if it is Byzantine
or down, and the lone trusted :class:`Referee`'s verdict is the oracle:

* with at most one faulty member the committee decides exactly that
  verdict;
* with two faulty members (beyond ``f``) it decides that verdict or
  raises :class:`QuorumError`, and never certifies another value.

Three or more faulty members are out of model; those cases only have to
end in a decision or a :class:`QuorumError`.  A scripted link then drops
each single proposal or vote hop in turn on top of every case with at
most one faulty member, which must still decide the oracle's verdict.
"""

import itertools

import pytest

from repro.core.fines import FinePolicy
from repro.core.quorum import (
    HONEST,
    REFEREE_STRATEGIES,
    CommitteeConfig,
    Link,
    QuorumError,
    RefereeCommittee,
)
from repro.core.referee import Referee, verdict_to_dict
from repro.crypto.pki import PKI

PARTICIPANTS = ["P1", "P2", "P3"]
NAMES = CommitteeConfig(size=4).member_names()
ASSIGNMENTS = list(itertools.product(REFEREE_STRATEGIES, repeat=4))
DOWN_SETS = [frozenset(c) for k in range(3)
             for c in itertools.combinations(NAMES, k)]


class DropOneHop(Link):
    """In-process delivery that loses the *k*-th proposal or vote hop."""

    def __init__(self, k: int, unreachable: frozenset[str]) -> None:
        super().__init__(unreachable)
        self.k = k
        self.hops = 0

    def _hop(self) -> bool:
        self.hops += 1
        return self.hops - 1 != self.k

    def propose(self, leader, member, signed) -> bool:
        return self._hop()

    def vote(self, member, leader, vote) -> bool:
        return self._hop()


@pytest.fixture(scope="module")
def world():
    pki = PKI(seed=5)
    keys = {n: pki.register(n) for n in PARTICIPANTS}
    evidence = (keys["P2"].sign({"processor": "P2", "bid": 2.0}),
                keys["P2"].sign({"processor": "P2", "bid": 3.0}))
    kwargs = dict(claimant="P1", accused="P2", evidence=evidence,
                  participants=PARTICIPANTS, fine=10.0)
    oracle = verdict_to_dict(
        Referee(pki, FinePolicy()).judge_equivocation(**kwargs))
    assert oracle["fines"], "the case must carry a fine"
    committee = RefereeCommittee(pki, FinePolicy(),
                                 config=CommitteeConfig(size=4))
    return committee, kwargs, oracle


def seat(committee, assignment):
    for name, strategy in zip(NAMES, assignment):
        committee.set_strategy(name, strategy)


def faulty(assignment, down):
    return {n for n, s in zip(NAMES, assignment) if s != HONEST} | down


def decide(committee, kwargs, link):
    committee.link = link
    return committee.decide(committee.new_case("judge_equivocation",
                                                **kwargs))


def assert_oracle(decision, oracle):
    assert verdict_to_dict(decision.verdict) == oracle
    assert decision.certificate.value == oracle


@pytest.mark.parametrize("assignment", ASSIGNMENTS,
                         ids=["-".join(a) for a in ASSIGNMENTS])
def test_grid(world, assignment):
    committee, kwargs, oracle = world
    seat(committee, assignment)
    for down in DOWN_SETS:
        bad = len(faulty(assignment, down))
        if bad <= 1:
            assert_oracle(decide(committee, kwargs, Link(down)), oracle)
            continue
        try:
            decision = decide(committee, kwargs, Link(down))
        except QuorumError:
            continue
        if bad == 2:
            assert_oracle(decision, oracle)


def test_two_fault_grid_reaches_both_outcomes(world):
    committee, kwargs, oracle = world
    outcomes = set()
    for assignment in ASSIGNMENTS:
        seat(committee, assignment)
        for down in DOWN_SETS:
            if len(faulty(assignment, down)) == 2:
                try:
                    decide(committee, kwargs, Link(down))
                    outcomes.add("decided")
                except QuorumError:
                    outcomes.add("no quorum")
    assert outcomes == {"decided", "no quorum"}


ONE_FAULT = [(a, d) for a in ASSIGNMENTS for d in DOWN_SETS
             if len(faulty(a, d)) <= 1]


@pytest.mark.parametrize("assignment,down", ONE_FAULT,
                         ids=["-".join(a) + "/" + ",".join(sorted(d))
                              for a, d in ONE_FAULT])
def test_each_dropped_hop_still_decides(world, assignment, down):
    committee, kwargs, oracle = world
    seat(committee, assignment)
    counter = DropOneHop(-1, down)
    decide(committee, kwargs, counter)
    assert counter.hops > 0
    for k in range(counter.hops):
        assert_oracle(decide(committee, kwargs, DropOneHop(k, down)), oracle)
