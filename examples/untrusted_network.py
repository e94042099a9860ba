#!/usr/bin/env python3
"""When even the broadcast can't be trusted: commitments at work.

The paper's protocol leans on a shared bus with reliable *atomic*
broadcast — every processor provably sees the same bids.  Footnote 1
covers the other world: point-to-point networks where a cheater can
whisper different bids to different peers ("split bids"), poisoning
honest processors' redundant computations.

This example runs the same split-bid attack over three transports and
shows what the footnote's hash commitments buy: detection moves from
"after we wasted compute" back to "before anyone lifts a finger".

Run:  python examples/untrusted_network.py
"""

from repro.agents.behaviors import AgentBehavior, Deviation
from repro.analysis.reporting import format_table
from repro.core.dls_bl_ncp import DLSBLNCP, EngineConfig
from repro.dlt.platform import NetworkKind
from repro.network.messages import MessageKind

W = [2.0, 3.0, 5.0, 4.0]
Z = 0.4

ATTACK = {1: AgentBehavior(
    deviations={Deviation.SPLIT_BIDS},
    deviation_params={"victim": "P4", "split_bid_factor": 0.5})}


def run(mode, behaviors=None):
    return DLSBLNCP(W, NetworkKind.NCP_FE, Z,
                    config=EngineConfig(behaviors=behaviors,
                                        bidding_mode=mode)).run()


def main() -> None:
    print("Attack: P2 tells P4 it bid 1.5 while telling everyone else 3.0\n")

    rows = []
    for mode, story in (
        ("atomic", "shared bus: one broadcast reaches all identically"),
        ("commit", "p2p + published hash commitments (footnote 1)"),
        ("naive", "p2p, nothing else"),
    ):
        out = run(mode, ATTACK)
        wasted = sum(out.costs.values())
        rows.append((
            mode,
            out.terminal_phase.name,
            ", ".join(out.fined) or "attack impossible",
            f"{wasted:.4f}",
            story,
        ))
    print(format_table(
        ("transport", "resolved in", "fined", "compute wasted", "why"),
        rows, title="One attack, three transports"))

    # The price of the defence: message counts for an honest engagement.
    print()
    traffic_rows = []
    for mode in ("atomic", "commit", "naive"):
        out = run(mode)
        traffic_rows.append((
            mode,
            out.traffic.by_kind[MessageKind.BID],
            out.traffic.by_kind[MessageKind.COMMITMENT],
        ))
    print(format_table(
        ("transport", "bid messages", "commitment messages"),
        traffic_rows,
        title=f"Honest-run bidding traffic (m={len(W)}): commitments cost "
              "m broadcasts and p2p costs m(m-1) bids"))

    print("\nMoral: atomic broadcast is doing real security work in the")
    print("protocol; when the network can't provide it, commitments restore")
    print("bidding-phase detection — for a quadratic traffic price.")


if __name__ == "__main__":
    main()
