"""Unit tests for the referee committee's quorum state machine."""

import pytest

from repro.core.fines import FinePolicy
from repro.core.quorum import (
    BYZANTINE_STRATEGIES,
    EQUIVOCATE,
    FINE_STEAL,
    HONEST,
    SILENT,
    CommitteeConfig,
    Link,
    QuorumError,
    RefereeCommittee,
    tolerated_faults,
)
from repro.core.referee import Referee, verdict_to_dict
from repro.crypto.pki import PKI

PARTICIPANTS = ["P1", "P2", "P3"]
FINE = 10.0


def signed_bid(pki_keys, name, bid):
    return pki_keys[name].sign({"processor": name, "bid": bid})


@pytest.fixture
def world():
    pki = PKI(seed=5)
    keys = {n: pki.register(n) for n in PARTICIPANTS}
    return pki, keys


def equivocation_case(committee, keys):
    a = signed_bid(keys, "P2", 2.0)
    b = signed_bid(keys, "P2", 3.0)
    return committee.new_case(
        "judge_equivocation", claimant="P1", accused="P2", evidence=(a, b),
        participants=PARTICIPANTS, fine=FINE)


class TestToleratedFaults:
    @pytest.mark.parametrize("size,f", [
        (1, 0), (2, 0), (3, 0), (4, 1), (6, 1), (7, 2), (10, 3), (13, 4)])
    def test_n_ge_3f_plus_1(self, size, f):
        assert tolerated_faults(size) == f
        assert size >= 3 * f + 1


class TestCommitteeConfig:
    def test_defaults(self):
        cfg = CommitteeConfig()
        assert (cfg.size, cfg.f, cfg.quorum) == (4, 1, 3)
        assert cfg.rounds_budget == 12
        assert cfg.member_names() == (
            "referee-1", "referee-2", "referee-3", "referee-4")

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError, match="positive"):
            CommitteeConfig(size=0)

    def test_rejects_untolerable_faults(self):
        with pytest.raises(ValueError, match="at most"):
            CommitteeConfig(size=4, faults=2)

    def test_rejects_out_of_range_byzantine(self):
        with pytest.raises(ValueError, match="out of range"):
            CommitteeConfig(size=4, byzantine=((4, SILENT),))

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown referee strategy"):
            CommitteeConfig(size=4, byzantine=((0, "bribable"),))

    def test_rejects_duplicate_seats(self):
        with pytest.raises(ValueError, match="duplicate"):
            CommitteeConfig(size=4, byzantine=((0, SILENT), (0, EQUIVOCATE)))

    def test_strategy_lookup(self):
        cfg = CommitteeConfig(size=4, byzantine=((2, FINE_STEAL),))
        assert cfg.strategy_for(2) == FINE_STEAL
        assert cfg.strategy_for(0) == HONEST


class TestHonestQuorum:
    def test_round_zero_decides(self, world):
        pki, keys = world
        committee = RefereeCommittee(pki, FinePolicy())
        decision = committee.decide(equivocation_case(committee, keys))
        assert decision.rounds == 1
        assert decision.verdict.fined_names == ("P2",)
        assert decision.certificate.round_index == 0
        assert len(set(decision.certificate.voters)) >= 3

    def test_verdict_matches_single_referee(self, world):
        pki, keys = world
        committee = RefereeCommittee(pki, FinePolicy())
        lone = Referee(PKI(seed=5), FinePolicy())
        # The lone referee needs the same processor keys registered.
        lone_pki_keys = {n: lone.pki.register(n) for n in PARTICIPANTS}
        a = signed_bid(lone_pki_keys, "P2", 2.0)
        b = signed_bid(lone_pki_keys, "P2", 3.0)
        expected = lone.judge_equivocation("P1", "P2", (a, b),
                                           PARTICIPANTS, FINE)
        decision = committee.decide(equivocation_case(committee, keys))
        assert verdict_to_dict(decision.verdict) == verdict_to_dict(expected)

    def test_certificate_retrievable_by_verdict_identity(self, world):
        pki, keys = world
        committee = RefereeCommittee(pki, FinePolicy())
        decision = committee.decide(equivocation_case(committee, keys))
        assert committee.certificate_for(decision.verdict) \
            is decision.certificate
        other = equivocation_case(committee, keys)
        fresh = committee.decide(other)
        assert committee.certificate_for(fresh.verdict) is not \
            decision.certificate

    def test_facade_matches_decide(self, world):
        pki, keys = world
        committee = RefereeCommittee(pki, FinePolicy())
        a = signed_bid(keys, "P2", 2.0)
        b = signed_bid(keys, "P2", 3.0)
        verdict = committee.judge_equivocation("P1", "P2", (a, b),
                                               PARTICIPANTS, FINE)
        assert verdict.fined_names == ("P2",)
        assert committee.certificate_for(verdict) is not None


class TestByzantineMembers:
    @pytest.mark.parametrize("strategy", BYZANTINE_STRATEGIES)
    def test_one_byzantine_leader_is_outvoted_or_skipped(self, world,
                                                         strategy):
        pki, keys = world
        committee = RefereeCommittee(
            pki, FinePolicy(),
            config=CommitteeConfig(size=4, byzantine=((0, strategy),)))
        decision = committee.decide(equivocation_case(committee, keys))
        assert decision.verdict.fined_names == ("P2",)
        # An equivocating round-0 leader shows the true verdict to its
        # even-indexed peers, which can be enough for quorum in round 0;
        # silent and fine-stealing leaders always burn round 0.
        if strategy != EQUIVOCATE:
            assert decision.rounds == 2

    def test_fine_stealer_never_certifies_theft(self, world):
        pki, keys = world
        committee = RefereeCommittee(
            pki, FinePolicy(),
            config=CommitteeConfig(size=4, byzantine=((0, FINE_STEAL),)))
        decision = committee.decide(equivocation_case(committee, keys))
        assert "referee-1" not in decision.verdict.rewards

    def test_beyond_tolerance_raises(self, world):
        pki, keys = world
        committee = RefereeCommittee(
            pki, FinePolicy(),
            config=CommitteeConfig(size=4, byzantine=tuple(
                (i, SILENT) for i in range(4))))
        with pytest.raises(QuorumError, match="no quorum"):
            committee.decide(equivocation_case(committee, keys))

    def test_unreachable_members_tolerated_up_to_f(self, world):
        pki, keys = world
        committee = RefereeCommittee(pki, FinePolicy(),
                                     config=CommitteeConfig(size=4))
        committee.link = Link(frozenset({"referee-1"}))
        decision = committee.decide(equivocation_case(committee, keys))
        assert decision.verdict.fined_names == ("P2",)
        assert decision.rounds == 2  # round 0's leader was unreachable

    def test_set_strategy_rejects_unknowns(self, world):
        pki, _ = world
        committee = RefereeCommittee(pki, FinePolicy())
        with pytest.raises(ValueError, match="unknown referee strategy"):
            committee.set_strategy("referee-1", "lazy")
        with pytest.raises(ValueError, match="no committee member"):
            committee.set_strategy("referee-9", SILENT)


class TestMemberKeysInPki:
    def test_every_member_registered(self, world):
        pki, _ = world
        committee = RefereeCommittee(pki, FinePolicy())
        for member in committee.members:
            signed = member.key.sign({"hello": member.name})
            assert pki.verify(signed)

    def test_processor_keys_undisturbed_by_roster(self):
        # Registering referee names must not change processor keys:
        # per-name deterministic minting keeps f=0 runs digest-identical.
        a = PKI(seed=9)
        a_key = a.register("P1")
        b = PKI(seed=9)
        RefereeCommittee(b, FinePolicy())
        b_key = b.register("P1")
        payload = {"processor": "P1", "bid": 2.0}
        assert a_key.sign(payload).signature == b_key.sign(payload).signature
