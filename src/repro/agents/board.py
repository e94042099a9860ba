"""Bid boards: verified archives of signed bids.

Every processor verifies and archives every signed bid it receives —
the Bidding-phase monitoring duty whose archive later backs its
equivocation claims, its allocation view and the bid vector it hands
the referee.  A :class:`BidBoard` is one such archive: signer -> the
distinct authentic signed bids seen, the first bid's value, and the
signers caught with two distinct payloads.

Each processor owns a private board.  Under reliable atomic broadcast,
though, every listener receives the same bytes in the same order, so
``m`` private archives of an atomic Bidding phase are ``m`` copies of
one archive.  A :class:`SharedBidBoard` is that one archive: the engine
seats every processor of an atomic, memoized, fault-free engagement on
it, and each BID broadcast is verified and archived once instead of
once per listener.  Thm 5.4's ``m^2`` cost is still paid where the
paper counts it: every broadcast is logged and counted by the bus, and
every logical delivery is credited to the signature cache exactly as a
private archive's verification would have been.

Per-observer semantics are kept exactly.  A sender never hears its own
broadcast, so its private archive holds only its own primary bid under
its name; readers of a shared board therefore ignore their own entry
beyond the first message (see :meth:`BidBoard.equivocators_except`),
and an observer that *diverges* — receives a bid any other way than an
atomic broadcast — first copies the board into a private archive with
its own entry trimmed to that first message (:meth:`SharedBidBoard.leave`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.crypto.pki import PKI
from repro.crypto.signatures import SignedMessage

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.agents.processor import ProcessorAgent
    from repro.dlt.platform import BusNetwork, NetworkKind
    from repro.perf.cache import ComputationCache

__all__ = ["BidBoard", "SharedBidBoard"]


class BidBoard:
    """One archive of authentic signed bids, verified against *pki*."""

    shared = False

    __slots__ = ("pki", "archive", "first", "equivocators", "_keys", "_stats")

    def __init__(self, pki: PKI) -> None:
        self.pki = pki
        # signer -> distinct authentic signed bids, in arrival order.
        # De-duplication scans the list's cached canonicals: lists hold
        # one entry per signer in honest runs (two or three under
        # equivocation).
        self.archive: dict[str, list[SignedMessage]] = {}
        # signer -> parsed bid of the first archived message
        self.first: dict[str, float] = {}
        # signers with two or more distinct archived payloads
        self.equivocators: set[str] = set()
        # Friend access to the PKI's registry and cache counters: add()
        # runs once per delivered bid and cannot afford the call into
        # PKI.verify when the verdict already rides on the message.
        self._keys = pki._keys
        self._stats = pki.signature_cache.stats

    def add(self, sm: SignedMessage, deliveries: int = 1) -> None:
        """Verify and archive *sm*, as received by *deliveries* readers.

        "If the message fails verification, it is discarded."  Distinct
        authentic payloads from one signer are all kept — they are the
        equivocation evidence.  The first reader pays for the real
        verification and the verdict rides on the message object, so
        each further reader is one signature-cache hit (none when the
        verdict is negative), exactly as if every reader had verified
        its own copy.
        """
        signer = sm.signer
        cached = sm._verified
        if cached is not None and cached[0] is self._keys.get(signer):
            if not cached[1]:
                return
            self._stats.hits += deliveries
        elif not self.pki.verify(sm):
            return
        elif deliveries > 1:
            self._stats.hits += deliveries - 1
        payload = sm.payload
        if not isinstance(payload, dict) or payload.get("processor") != signer:
            return
        msgs = self.archive.get(signer)
        if msgs is None:
            # First contact — the only case in honest engagements.
            self.archive[signer] = [sm]
            self.first[signer] = float(payload["bid"])
            return
        canonical = sm._canonical
        if canonical is None:
            canonical = sm.canonical
        for prior in msgs:
            if prior.canonical == canonical:
                return
        msgs.append(sm)
        self.equivocators.add(signer)

    def ordered(self, order: list[str]) -> tuple[tuple, tuple]:
        """``(w, names)``: the first-bid profile in *order*, and *order*.

        The cache-key form of the reader's bid view.  Raises
        :class:`KeyError` with the name of a signer holding no bid.
        """
        first = self.first
        return tuple([first[n] for n in order]), tuple(order)

    def network(self, order: list[str], z: float, kind: NetworkKind,
                memo: ComputationCache) -> BusNetwork:
        """The reader's bid view over *order*, as *memo*'s interned network."""
        w, names = self.ordered(order)
        return memo.network(w, z, kind, names)

    def equivocators_except(self, own: str) -> list[str]:
        """Equivocating signers other than *own*, sorted.

        *own*'s entry is excluded because a reader never holds its own
        second bid: it does not hear its own broadcasts.
        """
        found = self.equivocators
        if not found:
            return []
        return sorted(name for name in found if name != own)


class SharedBidBoard(BidBoard):
    """One engagement's bid archive, read by every seated processor.

    Seated *members* read the board as their own archive; processors
    that cannot share it (an archive already holding bids, another PKI)
    or that diverged later are *departed* and receive each broadcast
    one by one into their private boards.  The board is *intact* while
    it has members: it has then archived every atomic BID broadcast of
    the engagement, in bus-log order.

    Every member reads the same first-bid profile, so :meth:`network`
    builds the ordered bid tuple and looks up the interned network once
    per ``order`` list and shares it with all members, instead of each
    of the ``m`` readers building and hashing its own ``m``-entry
    tuples.  Archiving a bid drops it.
    """

    shared = True

    __slots__ = ("members", "departed", "_names", "_listening", "_network")

    def __init__(self, pki: PKI) -> None:
        super().__init__(pki)
        self.members: dict[str, ProcessorAgent] = {}
        self.departed: dict[str, ProcessorAgent] = {}
        # cached count of members among the bus's endpoint snapshot
        self._names: tuple[str, ...] | None = None
        self._listening = 0
        # (order list, z, kind, interned network); the list is held,
        # so its identity cannot be reused while cached.
        self._network: tuple | None = None

    def add(self, sm: SignedMessage, deliveries: int = 1) -> None:
        self._network = None
        super().add(sm, deliveries)

    def network(self, order: list[str], z: float, kind: NetworkKind,
                memo: ComputationCache) -> BusNetwork:
        """Shared :meth:`BidBoard.network`, built once per *order* list.

        Keyed by the list's identity: callers pass one phase's order
        list to every member and do not mutate it in between.
        """
        cached = self._network
        if (cached is None or cached[0] is not order
                or cached[1] != z or cached[2] is not kind):
            net = super().network(order, z, kind, memo)
            cached = self._network = (order, z, kind, net)
        return cached[3]

    @property
    def intact(self) -> bool:
        return bool(self.members)

    def join(self, agent: ProcessorAgent) -> None:
        """Seat *agent* on the board, or serve it one by one if its
        archive already holds bids or verifies against another PKI."""
        self._names = None
        if agent.pki is self.pki and not agent._board.archive:
            self.members[agent.name] = agent
            agent._board = self
        else:
            self.departed[agent.name] = agent

    def leave(self, agent: ProcessorAgent) -> BidBoard:
        """Unseat *agent*, handing it a private copy of its view."""
        own = agent.name
        del self.members[own]
        self.departed[own] = agent
        self._names = None
        board = BidBoard(self.pki)
        for signer, msgs in self.archive.items():
            board.archive[signer] = msgs[:1] if signer == own else list(msgs)
        board.first = dict(self.first)
        board.equivocators = {s for s, msgs in board.archive.items()
                              if len(msgs) > 1}
        return board

    def deliver(self, sm: SignedMessage, sender: str,
                listeners: tuple[str, ...] | None, *,
                own_copy: bool = False) -> None:
        """Deliver one atomic BID broadcast of *sm* from *sender*.

        *listeners* is what the bus's ``broadcast_once`` returned: the
        scope's endpoint names (every one but *sender* receives), or
        ``None`` when the transport fanned the message out itself — in
        which case the board dissolves, because listeners' views can
        now differ.  *own_copy* also delivers the message to *sender*
        (a bidder archives its own primary bid).
        """
        if listeners is None:
            for agent in list(self.members.values()):
                agent._board = self.leave(agent)
        elif self.members:
            if listeners is not self._names:
                members = self.members
                self._listening = sum(1 for n in listeners if n in members)
                self._names = listeners
            count = self._listening
            if sender in self.members and not own_copy:
                count -= 1
            if count:
                self.add(sm, count)
        for name, agent in self.departed.items():
            if (own_copy if name == sender
                    else listeners is not None and name in listeners):
                agent.observe_bid(sm)
