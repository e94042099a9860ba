"""Tests for protocol transcripts."""

import pytest

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
from repro.dlt.platform import NetworkKind
from repro.protocol.trace import describe_message, render_transcript, traffic_summary


def run_mech(behaviors=None):
    mech = DLSBLNCP([2.0, 3.0, 5.0], NetworkKind.NCP_FE, 0.4,
                    config=EngineConfig(behaviors=behaviors))
    outcome = mech.run()
    return mech, outcome


class TestTranscript:
    def test_honest_run_covers_all_phases(self):
        mech, _ = run_mech()
        text = render_transcript(mech.engine.bus)
        for marker in ("bid", "load", "meter", "payment-vector", "bill"):
            assert marker in text

    def test_line_per_message(self):
        mech, _ = run_mech()
        text = render_transcript(mech.engine.bus)
        assert len(text.splitlines()) == len(mech.engine.bus.log) + 1

    def test_terminated_run_shows_claim_and_verdict(self):
        mech, out = run_mech({1: AgentBehavior(
            deviations={Deviation.MULTIPLE_BIDS})})
        assert not out.completed
        text = render_transcript(mech.engine.bus)
        assert "claim" in text
        assert "verdict" in text
        assert "fined=['P2']" in text

    def test_bid_lines_show_values(self):
        mech, _ = run_mech()
        text = render_transcript(mech.engine.bus)
        assert "bid=2" in text and "bid=5" in text


class TestTrafficSummary:
    def test_summary_totals_match_stats(self):
        mech, _ = run_mech()
        bus = mech.engine.bus
        text = traffic_summary(bus)
        assert str(bus.stats.control_bytes) in text
        assert "TOTAL (control)" in text

    def test_only_present_kinds_listed(self):
        mech, _ = run_mech()
        text = traffic_summary(mech.engine.bus)
        assert "claim" not in text  # no disputes in an honest run


class TestDescribeMessage:
    def test_broadcast_marked_all(self):
        mech, _ = run_mech()
        first = mech.engine.bus.log[0]
        line = describe_message(first)
        assert "ALL" in line
        assert "P1" in line

    def test_commit_mode_transcript(self):
        from repro.core.dls_bl_ncp import DLSBLNCP
        from repro.dlt.platform import NetworkKind

        mech = DLSBLNCP([2.0, 3.0, 5.0], NetworkKind.NCP_FE, 0.4,
                        config=EngineConfig(bidding_mode="commit"))
        mech.run()
        text = render_transcript(mech.engine.bus)
        assert "commitment" in text
        assert "digest=" in text


class TestPhaseSpans:
    def test_every_run_emits_spans(self):
        _, out = run_mech()
        assert [s.phase for s in out.spans] == [
            "BIDDING", "ALLOCATING_LOAD", "PROCESSING_LOAD",
            "COMPUTING_PAYMENTS"]
        for span in out.spans:
            assert span.t_end >= span.t_start
            assert span.messages >= 0 and span.bytes >= 0

    def test_terminated_run_stops_at_offending_phase(self):
        _, out = run_mech({1: AgentBehavior(
            deviations={Deviation.MULTIPLE_BIDS})})
        assert [s.phase for s in out.spans] == ["BIDDING"]
        span = out.spans[0]
        assert span.verdicts == ("bidding-equivocation",)
        assert span.fines > 0

    def test_span_counters_sum_to_traffic(self):
        mech, out = run_mech()
        # Everything except the settlement BILL is attributed to a phase.
        assert sum(s.messages for s in out.spans) == \
            mech.engine.bus.stats.messages - 1
        assert sum(s.retries for s in out.spans) == \
            mech.engine.bus.stats.retries

    def test_spans_to_dict_is_versioned(self):
        from repro.protocol.trace import spans_to_dict

        _, out = run_mech()
        doc = spans_to_dict(out.spans)
        assert doc["format"] == "repro/protocol-trace/v1"
        assert len(doc["spans"]) == 4
        assert doc["spans"][0]["phase"] == "BIDDING"
        assert doc["spans"][0]["duration"] == pytest.approx(
            doc["spans"][0]["t_end"] - doc["spans"][0]["t_start"])

    def test_render_spans_tabulates(self):
        from repro.protocol.trace import render_spans

        _, out = run_mech()
        text = render_spans(out.spans)
        assert "BIDDING" in text and "COMPUTING_PAYMENTS" in text
