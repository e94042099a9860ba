"""`repro market` flags: every name, type, default and choice, pinned.

The market subcommand's request-mirroring flags and its
``MarketRequest(...)`` call must stay exactly what users script
against.  Each flag, set once, must produce the same request as the
hand-built :class:`MarketRequest` with that one field changed.
"""

import pytest

import repro.market
from repro.api import MarketRequest
from repro.cli import _deviation, build_parser, main

# option string -> (type, default, choices)
FLAGS = {
    "--rounds": (int, 200, None),
    "--seed": (int, 0, None),
    "--z": (float, 0.4, None),
    "--kind": (None, "ncp-fe", ("ncp-fe", "ncp-nfe")),
    "--num-blocks": (int, 16, None),
    "--processors": (int, 6, None),
    "--cohort": (int, 3, None),
    "--deviant": (_deviation, [], None),
    "--arrival-rate": (float, 2.0, None),
    "--contention-window": (float, 0.0, None),
    "--max-contention": (int, 3, None),
    "--policy": (None, "fifo", ("fifo", "sjf", "rr")),
    "--join-rate": (float, 0.0, None),
    "--leave-rate": (float, 0.0, None),
    "--reputation-decay": (float, 0.8, None),
    "--admission-floor": (float, 0.2, None),
    "--window": (int, 25, None),
    "--verify": (None, False, None),
    "--json": (None, None, None),
}


def _market_actions():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if a.dest == "command").choices["market"]
    return {a.option_strings[-1]: a for a in sub._actions
            if a.option_strings and a.dest != "help"}


def test_flag_table_is_pinned():
    actions = _market_actions()
    assert set(actions) == set(FLAGS)
    for flag, (typ, default, choices) in FLAGS.items():
        action = actions[flag]
        assert action.type is typ, flag
        assert action.default == default, flag
        assert (tuple(action.choices) if action.choices else None) \
            == choices, flag
    assert actions["--deviant"].metavar == "INDEX:NAME"
    assert actions["--deviant"].default == []


@pytest.fixture
def captured(monkeypatch):
    """Run ``repro market`` up to the simulator and capture its input."""
    seen = {}

    def fake_run_market(request, *, verify=False):
        seen["request"], seen["verify"] = request, verify
        raise repro.market.MarketError("captured")

    monkeypatch.setattr(repro.market, "run_market", fake_run_market)

    def run(argv):
        assert main(["market", *argv]) == 1
        return seen["request"], seen["verify"]

    return run


def test_defaults_build_the_default_request(captured):
    request, verify = captured([])
    assert request == MarketRequest(rounds=200)
    assert verify is False


@pytest.mark.parametrize("argv,changes", [
    (["--rounds", "7"], dict(rounds=7)),
    (["--seed", "3"], dict(seed=3)),
    (["--z", "0.5"], dict(z=0.5)),
    (["--kind", "ncp-nfe"], dict(kind="ncp-nfe")),
    (["--num-blocks", "12"], dict(num_blocks=12)),
    (["--processors", "8"], dict(processors=8)),
    (["--cohort", "4"], dict(cohort=4)),
    (["--deviant", "0:multiple-bids"], dict(deviants=((0, "multiple-bids"),))),
    (["--arrival-rate", "3"], dict(arrival_rate=3.0)),
    (["--contention-window", "0.5"], dict(contention_window=0.5)),
    (["--max-contention", "2"], dict(max_contention=2)),
    (["--policy", "sjf"], dict(policy="sjf")),
    (["--join-rate", "0.1"], dict(join_rate=0.1)),
    (["--leave-rate", "0.05"], dict(leave_rate=0.05)),
    (["--reputation-decay", "0.7"], dict(reputation_decay=0.7)),
    (["--admission-floor", "0.1"], dict(admission_floor=0.1)),
    (["--window", "10"], dict(window=10)),
])
def test_each_flag_sets_its_field(captured, argv, changes):
    request, _ = captured(argv)
    assert request == MarketRequest(**{"rounds": 200, **changes})


def test_verify_is_passed_to_the_simulator(captured):
    assert captured(["--verify"]) == (MarketRequest(rounds=200), True)


def test_bad_choice_is_a_usage_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["market", "--policy", "lifo"])
