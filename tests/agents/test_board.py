"""Tests for bid boards: private archives and the shared atomic board."""

import pytest

from repro.agents.behaviors import AgentBehavior, Deviation, truthful
from repro.agents.board import BidBoard, SharedBidBoard
from repro.agents.processor import ProcessorAgent
from repro.crypto.pki import PKI
from repro.dlt.platform import NetworkKind

NAMES = ("P1", "P2", "P3", "P4")


def make_agents(behaviors=None, seed=3):
    pki = PKI(seed=seed)
    behaviors = behaviors or {}
    agents = [ProcessorAgent(name, 2.0 + i, behaviors.get(i, truthful()),
                             key=pki.register(name), pki=pki,
                             kind=NetworkKind.NCP_FE, z=0.5)
              for i, name in enumerate(NAMES)]
    return pki, agents


def private_exchange(agents):
    """Per-observer atomic Bidding: own primary, then every broadcast
    delivered to every other agent."""
    for a in agents:
        msgs = a.make_bid_messages()
        a.observe_bid(msgs[0])
        for sm in msgs:
            for b in agents:
                if b is not a:
                    b.observe_bid(sm)


def board_exchange(board, agents, listeners=NAMES):
    """The same exchange through a shared board."""
    for a in agents:
        for i, sm in enumerate(a.make_bid_messages()):
            board.deliver(sm, a.name, listeners, own_copy=i == 0)


def seated(pki, agents):
    board = SharedBidBoard(pki)
    for a in agents:
        board.join(a)
    return board


def views(agents):
    return [(a.detect_equivocations(),
             a.bid_vector_messages(list(NAMES)),
             {k: list(v) for k, v in a._bid_archive.items()
              if k != a.name},
             a._bid_archive[a.name][:1],
             a.bid_view(list(NAMES))) for a in agents]


EQUIVOCATOR = {2: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})}


class TestPrivateBoard:
    def test_archives_first_bid_and_flags_equivocators(self):
        pki, agents = make_agents(EQUIVOCATOR)
        board = BidBoard(pki)
        primary, alt = agents[2].make_bid_messages()
        board.add(primary)
        board.add(primary)
        assert board.equivocators_except("P1") == []
        board.add(alt)
        assert board.first == {"P3": primary.payload["bid"]}
        assert board.archive["P3"] == [primary, alt]
        assert board.equivocators_except("P1") == ["P3"]
        assert board.equivocators_except("P3") == []

    def test_deliveries_are_credited_as_cache_hits(self):
        pki, agents = make_agents()
        board = BidBoard(pki)
        sm = agents[1].make_bid_messages()[0]
        board.add(sm, deliveries=5)
        stats = pki.signature_cache.stats
        assert (stats.hits, stats.misses) == (4, 1)
        board.add(sm, deliveries=3)
        assert (stats.hits, stats.misses) == (7, 1)


class TestSharedBoard:
    @pytest.mark.parametrize("behaviors", [None, EQUIVOCATOR, {
        0: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS}),
        3: AgentBehavior(deviations={Deviation.MULTIPLE_BIDS})}])
    def test_views_and_accounting_match_private_archives(self, behaviors):
        pki_p, private = make_agents(behaviors)
        private_exchange(private)
        pki_s, shared = make_agents(behaviors)
        board_exchange(seated(pki_s, shared), shared)
        assert views(shared) == views(private)
        sp, ss = pki_p.signature_cache.stats, pki_s.signature_cache.stats
        assert (ss.hits, ss.misses) == (sp.hits, sp.misses)

    def test_sender_does_not_hold_its_own_second_bid(self):
        pki, agents = make_agents(EQUIVOCATOR)
        board_exchange(seated(pki, agents), agents)
        deviant = agents[2]
        assert deviant.detect_equivocations() == []
        assert [s for s, _ in agents[0].detect_equivocations()] == ["P3"]

    def test_divergent_observer_takes_a_private_copy(self):
        pki, agents = make_agents(EQUIVOCATOR)
        board = seated(pki, agents)
        board_exchange(board, agents[:3])
        deviant = agents[2]
        late = agents[3].make_bid_messages()[0]
        deviant.observe_bid(late)  # reaches it outside the board
        assert not deviant._board.shared
        assert "P3" in board.departed and "P3" not in board.members
        # Its private copy holds only its own primary bid under its name.
        assert len(deviant._bid_archive["P3"]) == 1
        assert deviant._board.equivocators == set()
        assert "P4" in deviant._bid_archive and "P4" not in board.archive
        # Later broadcasts still reach it, one by one.
        extra = agents[3].key.sign({"processor": "P4", "bid": 9.0})
        board.deliver(extra, "P4", NAMES)
        assert len(deviant._bid_archive["P4"]) == 2
        assert board.archive["P4"] == [extra]
        assert board.intact

    def test_transport_fan_out_dissolves_the_board(self):
        pki_p, private = make_agents(EQUIVOCATOR)
        private_exchange(private)
        pki_s, shared = make_agents(EQUIVOCATOR)
        board = seated(pki_s, shared)
        for a in shared:
            msgs = a.make_bid_messages()
            for i, sm in enumerate(msgs):
                # What a fault-armed bus does: each listener's handler
                # observes the message, then broadcast_once returns None.
                for b in shared:
                    if b is not a:
                        b.observe_bid(sm)
                board.deliver(sm, a.name, None, own_copy=i == 0)
        assert not board.intact
        assert all(not a._board.shared for a in shared)
        assert views(shared) == views(private)
        sp, ss = pki_p.signature_cache.stats, pki_s.signature_cache.stats
        assert (ss.hits, ss.misses) == (sp.hits, sp.misses)

    def test_agent_with_bids_or_another_pki_is_served_one_by_one(self):
        pki, agents = make_agents()
        agents[0].observe_bid(agents[1].make_bid_messages()[0])
        stranger = ProcessorAgent("P4", 5.0, truthful(),
                                  key=PKI(seed=9).register("P4"),
                                  pki=PKI(seed=9), kind=NetworkKind.NCP_FE,
                                  z=0.5)
        board = seated(pki, [agents[0], agents[1], agents[2], stranger])
        assert sorted(board.departed) == ["P1", "P4"]
        board_exchange(board, agents[:3], NAMES)
        assert sorted(agents[0]._bid_archive) == ["P1", "P2", "P3"]
        assert not agents[0]._board.shared
        # Another PKI cannot authenticate this engagement's bids.
        assert stranger._bid_archive == {}


class TestSharedNetwork:
    """The shared board builds the ordered bid tuple once per order."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The boards on which :meth:`BidBoard.ordered` ran, in order."""
        calls = []
        original = BidBoard.ordered

        def counting(board, order):
            calls.append(board)
            return original(board, order)

        monkeypatch.setattr(BidBoard, "ordered", counting)
        return calls

    @staticmethod
    def memoized(agents):
        from repro.perf import ComputationCache

        memo = ComputationCache()
        for a in agents:
            a.memo = memo
        return memo

    def test_members_share_one_build_and_network(self, builds):
        pki, agents = make_agents()
        board = seated(pki, agents)
        board_exchange(board, agents)
        memo = self.memoized(agents)
        order = list(NAMES)
        net = agents[0]._network(order)
        assert all(a._network(order) is net for a in agents)
        assert builds == [board]
        assert net is memo.network(tuple(a.bid for a in agents), 0.5,
                                   NetworkKind.NCP_FE, NAMES)

    def test_an_archived_bid_drops_the_network(self, builds):
        pki, agents = make_agents()
        board = seated(pki, agents)
        board_exchange(board, agents[:3])
        self.memoized(agents)
        order = list(NAMES[:3])
        net = agents[0]._network(order)
        board_exchange(board, agents[3:])
        assert agents[0]._network(order) is net
        assert builds == [board, board]
        assert agents[0]._network(list(NAMES)).w[3] == agents[3].bid

    def test_missing_bid_names_the_reader(self):
        pki, agents = make_agents()
        board = seated(pki, agents)
        board_exchange(board, agents[:3])
        self.memoized(agents)
        with pytest.raises(KeyError, match="P1 holds no bid from P4"):
            agents[0]._network(list(NAMES))

    def test_a_leaver_builds_its_own_tuple(self, builds):
        pki, agents = make_agents()
        board = seated(pki, agents)
        board_exchange(board, agents)
        self.memoized(agents)
        order = list(NAMES)
        shared = agents[0]._network(order)
        leaver = agents[1]
        leaver.observe_bid(agents[2].make_bid_messages()[0])
        assert not leaver._board.shared
        builds.clear()
        assert leaver._network(order) == shared
        assert leaver._network(order) == shared
        assert builds == [leaver._board, leaver._board]
        assert agents[0]._network(order) is shared
        assert len(builds) == 2
