"""Bus delivery for the referee committee's quorum rounds.

:meth:`~repro.core.quorum.RefereeCommittee.decide` owns the one round
loop; :class:`BusLink` only moves its hops over the simulated bus, so
committee-internal traffic is real, countable, droppable traffic:

* the round leader unicasts one ``QUORUM_PROPOSAL`` per other member,
  and each member unicasts its ``QUORUM_VOTE`` back, both through
  :meth:`~repro.protocol.context.EngagementContext.send_with_retry`
  (bounded ack/retry within ``deadlines.committee_round``);
* a verifying certificate is announced with one ``QUORUM_CERT``
  broadcast, the processors' receipt that the verdict they are about to
  see was quorum-backed;
* a round that decides nothing burns its ``committee_round`` budget on
  the simulated clock before the leadership rotates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.quorum import Link
from repro.network.messages import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.crypto.certificates import QuorumCertificate
    from repro.crypto.signatures import SignedMessage
    from repro.protocol.context import EngagementContext

__all__ = ["BusLink"]


class BusLink(Link):
    """One engagement's bus, as the committee's delivery link."""

    def __init__(self, ctx: "EngagementContext") -> None:
        super().__init__()
        self.ctx = ctx

    def down(self, name: str) -> bool:
        ctx = self.ctx
        return ctx.fault_plan is not None and ctx.bus.is_crashed(name)

    def _send(self, kind: MessageKind, sender: str, recipient: str,
              signed: "SignedMessage") -> bool:
        ctx = self.ctx
        return bool(ctx.send_with_retry(
            Message(kind, sender, (recipient,), signed),
            window=ctx.deadlines.committee_round))

    def propose(self, leader: str, member: str,
                signed: "SignedMessage") -> bool:
        return self._send(MessageKind.QUORUM_PROPOSAL, leader, member, signed)

    def vote(self, member: str, leader: str, vote: "SignedMessage") -> bool:
        return self._send(MessageKind.QUORUM_VOTE, member, leader, vote)

    def announce(self, cert: "QuorumCertificate") -> None:
        self.ctx.bus.broadcast(Message(
            MessageKind.QUORUM_CERT, cert.leader, ("*",), {
                "case": cert.case,
                "round": cert.round_index,
                "digest": cert.digest,
                "voters": list(cert.voters),
            }))

    def expire(self) -> None:
        queue = self.ctx.bus.queue
        queue.run_until(queue.now + self.ctx.deadlines.committee_round)
