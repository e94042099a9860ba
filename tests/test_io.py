"""Tests for JSON serialization."""

import json

import pytest
from hypothesis import given, settings

from repro.core.dls_bl import DLSBL
from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.io import (
    dumps_network,
    dumps_result,
    loads_network,
    mechanism_result_to_dict,
    network_from_dict,
    network_to_dict,
    protocol_result_to_dict,
)
from tests.conftest import network_strategy


class TestNetworkRoundTrip:
    @given(network_strategy())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_identity(self, net):
        again = loads_network(dumps_network(net))
        assert again == net

    def test_dict_contents(self):
        net = BusNetwork((2.0, 3.0), 0.5, NetworkKind.NCP_NFE, ("a", "b"))
        d = network_to_dict(net)
        assert d["kind"] == "ncp-nfe"
        assert d["names"] == ["a", "b"]

    def test_rejects_wrong_format_tag(self):
        with pytest.raises(ValueError, match="format"):
            network_from_dict({"format": "something-else"})

    def test_rejects_malformed_fields(self):
        base = network_to_dict(BusNetwork((2.0,), 0.5, NetworkKind.CP))
        bad = dict(base)
        del bad["z"]
        with pytest.raises(ValueError, match="malformed"):
            network_from_dict(bad)
        bad = dict(base, kind="mesh")
        with pytest.raises(ValueError, match="malformed"):
            network_from_dict(bad)


class TestMechanismDump:
    def test_fields_and_json_clean(self):
        r = DLSBL(NetworkKind.CP, 0.5).truthful_run([2.0, 3.0, 5.0])
        d = mechanism_result_to_dict(r)
        text = json.dumps(d)  # must be pure JSON types
        again = json.loads(text)
        assert again["payments"] == pytest.approx(list(r.payments))
        assert again["user_cost"] == pytest.approx(r.user_cost)


class TestProtocolDump:
    def test_honest_run_dump(self):
        out = DLSBLNCP([2.0, 3.0, 5.0], NetworkKind.NCP_FE, 0.4).run()
        d = protocol_result_to_dict(out)
        again = json.loads(json.dumps(d))
        assert again["completed"] is True
        assert again["terminal_phase"] == "COMPLETE"
        assert again["verdicts"] == []
        assert again["traffic"]["control_messages"] > 0

    def test_terminated_run_dump_includes_verdicts(self):
        from repro.agents.behaviors import AgentBehavior, Deviation

        out = DLSBLNCP([2.0, 3.0, 5.0], NetworkKind.NCP_FE, 0.4,
                       config=EngineConfig(behaviors={1: AgentBehavior(
                           deviations={Deviation.MULTIPLE_BIDS})})).run()
        d = json.loads(json.dumps(protocol_result_to_dict(out)))
        assert d["completed"] is False
        assert d["verdicts"][0]["fines"][0]["who"] == "P2"
        assert d["verdicts"][0]["rewards"]


class TestProtocolDumpEdges:
    def test_abstention_run_dump(self):
        from repro.agents.behaviors import abstaining

        out = DLSBLNCP([2.0, 3.0, 5.0], NetworkKind.NCP_FE, 0.4,
                       config=EngineConfig(behaviors={1: abstaining()})).run()
        d = json.loads(json.dumps(protocol_result_to_dict(out)))
        assert d["participants"] == ["P1", "P3"]
        assert d["payments"]["P2"] == 0.0
        assert d["alpha"]["P2"] == 0.0

    def test_commit_mode_dump(self):
        out = DLSBLNCP([2.0, 3.0], NetworkKind.NCP_FE, 0.4,
                       config=EngineConfig(bidding_mode="commit")).run()
        d = json.loads(json.dumps(protocol_result_to_dict(out)))
        assert d["completed"] is True
        assert d["traffic"]["messages"] > 0


class TestDumpsDispatch:
    def test_dispatch(self):
        r = DLSBL(NetworkKind.CP, 0.5).truthful_run([2.0, 3.0])
        assert "mechanism-result" in dumps_result(r)
        out = DLSBLNCP([2.0, 3.0], NetworkKind.NCP_FE, 0.4).run()
        assert "protocol-result" in dumps_result(out)

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            dumps_result({"not": "a result"})
