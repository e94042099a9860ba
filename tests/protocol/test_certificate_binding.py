"""A quorum certificate binds one verdict, at its committee's quorum.

``EngagementContext.apply_verdict`` lets a committee verdict move money
only through :meth:`RefereeCommittee.certify`.  The certificate lookup
is keyed on verdict identity, so a lookup can hand back a certificate
minted for some other verdict (an address reused after the decided
verdict was freed does exactly that).  These tests plant such
certificates deterministically and check that ``certify`` refuses
every one whose content, roster or threshold does not bind the verdict
in hand.
"""

import pytest

from repro.core.fines import FinePolicy
from repro.core.quorum import CommitteeConfig, QuorumError, RefereeCommittee
from repro.core.referee import Fine, RefereeVerdict, verdict_to_dict
from repro.crypto.certificates import (
    QuorumCertificate,
    value_digest,
    verify_certificate,
    vote_payload,
)
from repro.crypto.pki import PKI
from repro.dlt.platform import NetworkKind
from repro.protocol.context import (
    EngagementContext,
    PhaseDeadlines,
    RetryPolicy,
)

class PlantedLookup(RefereeCommittee):
    """A committee whose certificate lookup returns one fixed certificate."""

    planted: QuorumCertificate | None = None

    def certificate_for(self, verdict):
        return self.planted


@pytest.fixture
def committee():
    return PlantedLookup(PKI(seed=5), FinePolicy(),
                         config=CommitteeConfig(size=4))


def context(committee):
    pki = committee.pki
    return EngagementContext(
        agents=[], originator=None, kind=NetworkKind.NCP_FE, z=0.4,
        num_blocks=60, bidding_mode="atomic", policy=FinePolicy(), pki=pki,
        user_key=pki.register("user"), referee=committee, infra=None,
        bus=None, memo=None, deadlines=PhaseDeadlines(),
        retry=RetryPolicy(), fault_plan=None, order=[],
        adjudicator=committee)


def fining(case: str, amount: float) -> RefereeVerdict:
    return RefereeVerdict(case=case, fines=(Fine("P1", amount, "invented"),),
                          rewards={}, compensated={}, terminates=True)


def certificate(committee, verdict, roster, voters):
    """Genuine votes of the first *voters* members, threshold = *voters*."""
    value = verdict_to_dict(verdict)
    digest = value_digest(value)
    votes = tuple(m.key.sign(vote_payload(verdict.case, 0, digest))
                  for m in committee.members[:voters])
    return QuorumCertificate(case=verdict.case, round_index=0,
                             leader=committee.names[0], value=value,
                             votes=votes, committee=roster, threshold=voters)


def unresponsive_case(committee):
    return committee.new_case("judge_unresponsive", unresponsive="P2",
                              survivors=("P1", "P3"))


def test_decided_verdict_certifies(committee):
    decision = committee.decide(unresponsive_case(committee))
    committee.planted = decision.certificate
    assert committee.certify(decision.verdict) is decision.certificate


def test_certificate_for_other_content_is_refused(committee):
    decision = committee.decide(unresponsive_case(committee))
    assert not decision.verdict.fines
    committee.planted = decision.certificate
    forged = fining(decision.verdict.case, 99.0)
    assert verify_certificate(decision.certificate, committee.pki)
    with pytest.raises(QuorumError, match="certificate"):
        context(committee).apply_verdict(forged)


def test_certificate_below_committee_quorum_is_refused(committee):
    verdict = fining("minted#1", 99.0)
    cert = certificate(committee, verdict, committee.names, voters=1)
    assert verify_certificate(cert, committee.pki)
    assert cert.threshold == 1 < committee.config.quorum == 3
    committee.planted = cert
    with pytest.raises(QuorumError, match="certificate"):
        context(committee).apply_verdict(verdict)


def test_certificate_over_another_roster_is_refused(committee):
    verdict = fining("minted#2", 99.0)
    roster = committee.names[:3] + ("P1",)
    cert = certificate(committee, verdict, roster, voters=3)
    assert verify_certificate(cert, committee.pki)
    committee.planted = cert
    with pytest.raises(QuorumError, match="certificate"):
        context(committee).apply_verdict(verdict)
