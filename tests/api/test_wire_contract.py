"""The v1 wire contract, pinned field by field.

One row per validated field of every v1 value type: a bad value and
the fragment of the :class:`ApiError` it must raise.  Every fragment
names the field and what would have been accepted, so a message that
stops being actionable fails here.  The Hypothesis properties pin the
canonical round-trip (``from_dict(to_dict(r)) == r``) and the digest
definition (SHA-256 of the canonical JSON of ``to_dict()``) for the
request types with the richest field surface.
"""

import hashlib
import json
import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import (
    ApiError,
    BenchRequest,
    BenchResult,
    EngagementRequest,
    EngagementResult,
    FleetStatsResult,
    MarketRequest,
    MarketResult,
    MultiEngagementRequest,
    MultiEngagementResult,
    SweepRequest,
    SweepResult,
    request_from_dict,
)
from repro.sweep import SweepPlan
from repro.sweep.spec import canonical_json

W = (2.0, 3.0, 5.0)
Z = 0.4
RECORD = {"format": "repro/protocol-result/v1"}


def _plan():
    return SweepPlan.from_scenarios(
        "utility-point",
        [{"w": list(W), "z": Z, "kind": "ncp-fe", "i": 0,
          "bid_factor": 1.0, "exec_factor": 1.0}]).to_dict()


def _sub(**kwargs):
    return EngagementRequest(**{"w": W, "z": Z, **kwargs}).to_dict()


def _bad_sub():
    bad = _sub()
    bad["z"] = 0.0
    return bad


# (type, base kwargs, field, bad value, ApiError fragment)
ENGAGEMENT = [
    ("w", (2.0,), "w must list at least 2 per-unit processing times"),
    ("w", (2.0, -1.0), "w[1] must be > 0.0"),
    ("z", 0.0, "z must be > 0.0"),
    ("z", "fast", "z must be a number"),
    ("z", math.inf, "z must be finite"),
    ("kind", "cp", "kind 'cp' has a trusted control processor"),
    ("kind", "mesh", "kind must be one of ['ncp-fe', 'ncp-nfe']"),
    ("num_blocks", 0, "num_blocks must be >= 1"),
    ("num_blocks", 1.5, "num_blocks must be an integer"),
    ("bidding_mode", "gossip",
     "bidding_mode must be one of ['atomic', 'commit', 'naive']"),
    ("fine_factor", 0.0, "fine_factor must be > 0.0"),
    ("redundancy", "psychic",
     "redundancy must be one of ['memoized', 'independent']"),
    ("deviants", ((0,),), "each deviants entry must be [index, name]"),
    ("deviants", ((-1, "multiple-bids"),), "deviants index must be >= 0"),
    ("deviants", ((5, "multiple-bids"),),
     "deviants index 5 out of range for 3 processors"),
    ("deviants", ((0, "nope"),), "unknown deviation 'nope'; choose from ["),
    ("crash", ((0,),), "each crash entry must be [index, progress]"),
    ("crash", ((7, 0.5),), "crash index 7 out of range for 3 processors"),
    ("crash", ((1, 1.5),), "crash progress must be <= 1.0"),
    ("drop_rate", 1.0, "drop_rate must be < 1.0"),
    ("drop_rate", -0.1, "drop_rate must be >= 0.0"),
    ("seed", "x", "seed must be an integer"),
    ("pki_seed", 1.5, "pki_seed must be an integer"),
    ("committee", -1, "committee must be >= 0"),
    ("byzantine", ((0, "silent"),),
     "byzantine referees need a committee; set committee >= 1"),
]
COMMITTEE = [
    ("byzantine", ((0,),), "each byzantine entry must be [seat, strategy]"),
    ("byzantine", ((4, "silent"),),
     "byzantine seat 4 out of range for a 4-member committee"),
    ("byzantine", ((0, "evil"),),
     "unknown referee strategy 'evil'; choose from ["),
    ("byzantine", ((0, "silent"), (0, "silent")),
     "byzantine seats must be distinct"),
    ("byzantine", ((0, "silent"), (1, "silent")),
     "a 4-member committee tolerates at most 1 Byzantine member(s)"),
]
MARKET = [
    ("rounds", 0, "rounds must be >= 1"),
    ("seed", 1.5, "seed must be an integer"),
    ("z", 0.0, "z must be > 0.0"),
    ("kind", "cp", "kind must be one of ['ncp-fe', 'ncp-nfe']"),
    ("num_blocks", 0, "num_blocks must be >= 1"),
    ("fine_factor", 0.0, "fine_factor must be > 0.0"),
    ("processors", 1, "processors must be >= 2"),
    ("processors", 2, "cohort must be <= processors; got cohort=3 with "
                      "processors=2"),
    ("cohort", 1, "cohort must be >= 2"),
    ("w_low", 0.0, "w_low must be > 0.0"),
    ("w_high", 1.0, "w_high must be >= 1.5"),
    ("arrival_rate", 0.0, "arrival_rate must be > 0.0"),
    ("contention_window", -1.0, "contention_window must be >= 0.0"),
    ("max_contention", 0, "max_contention must be >= 1"),
    ("policy", "lifo", "policy must be one of ['fifo', 'sjf', 'rr']"),
    ("join_rate", 1.5, "join_rate must be <= 1.0"),
    ("leave_rate", -0.1, "leave_rate must be >= 0.0"),
    ("deviants", ((0,),), "each deviants entry must be [index, name]"),
    ("deviants", ((9, "multiple-bids"),),
     "deviants index 9 out of range for 6 processors"),
    ("deviants", ((0, "nope"),), "unknown deviation 'nope'; choose from ["),
    ("deviants", tuple((i, "multiple-bids") for i in range(6)),
     "deviants cannot cover the whole founding population"),
    ("reputation_decay", 1.5, "reputation_decay must be <= 1.0"),
    ("admission_floor", 1.0, "admission_floor must be < 1.0"),
    ("window", 0, "window must be >= 1"),
]
MULTI = [
    ("engagements", (),
     "engagements must list at least 1 engagement payload"),
    ("engagements", (5,),
     "engagements[0] must be an engagement payload object; got int"),
    ("engagements", (_bad_sub(),), "engagements[0]: z must be > 0.0"),
    ("engagements", (_sub(), _sub(z=0.7)),
     "engagements sharing a bus share its z; engagements[0].z = 0.4 but "
     "engagements[1].z = 0.7"),
    ("policy", "lifo", "policy must be one of ['fifo', 'sjf', 'rr']"),
]
MULTI_RESULT = [
    ("policy", "lifo", "policy must be one of ['fifo', 'sjf', 'rr']"),
    ("outcomes", {},
     "outcomes must map engagement ids to repro/protocol-result/v1 objects"),
    ("outcomes", {"E1": {}},
     "outcomes['E1'] must be a repro/protocol-result/v1 object"),
    ("order", ("E2",),
     "order ['E2'] must be a permutation of the outcome ids ['E1']"),
    ("completions", {"E1": -1.0}, "completions['E1'] must be >= 0.0"),
    ("digest_value", "0" * 64,
     "digest_value does not match the settlement map"),
]
MARKET_RESULT = [
    ("rounds", -1, "rounds must be >= 0"),
    ("digest_value", "", "digest_value must be the run's stream digest"),
    ("summary", [1], "summary must be an object; got [1]"),
    ("series", 3, "series must map series names to value lists; got 3"),
    ("series", {"welfare": 3}, "series['welfare'] must be a list; got 3"),
    ("reputations", 5,
     "reputations must map processor ids to scores; got 5"),
    ("reputations", {"M1": 2.0}, "reputations['M1'] must be <= 1.0"),
]

ROWS = (
    [(EngagementRequest, dict(w=W, z=Z), *r) for r in ENGAGEMENT]
    + [(EngagementRequest, dict(w=W, z=Z, committee=4), *r)
       for r in COMMITTEE]
    + [(MarketRequest, {}, *r) for r in MARKET]
    + [(MultiEngagementRequest, dict(engagements=(_sub(),)), *r)
       for r in MULTI]
    + [
        (SweepRequest, dict(plan=_plan()), "plan", 5,
         "plan must be a repro/sweep-plan/v1 JSON object; got int"),
        (SweepRequest, dict(plan=_plan()), "plan", {"format": "nope"},
         "plan is not a valid repro/sweep-plan/v1 payload"),
        (SweepRequest, dict(plan=_plan()), "workers", 0,
         "workers must be >= 1"),
        (BenchRequest, {}, "quick", 1, "quick must be true or false; got 1"),
        (BenchRequest, {}, "workers", 0, "workers must be >= 1"),
        (EngagementResult, dict(outcome=RECORD), "outcome", 5,
         "outcome must be a repro/protocol-result/v1 object; got int"),
        (EngagementResult, dict(outcome=RECORD), "outcome", {"format": "x"},
         "outcome.format must be 'repro/protocol-result/v1'; got 'x'"),
        (SweepResult, {}, "digest_value", "0" * 64,
         "digest_value does not match the record stream"),
        (BenchResult, {}, "timings", [1],
         "timings must map kernel names to seconds; got list"),
        (FleetStatsResult, {}, "daemons", 7, "daemons must be a list; got 7"),
        (FleetStatsResult, {}, "daemons", ({"healthy": True},),
         "daemons[0] must be an object with an 'endpoint'"),
        (FleetStatsResult, {}, "dispatcher", [1, 2],
         "dispatcher must be an object; got [1, 2]"),
    ]
    + [(MultiEngagementResult, dict(outcomes={"E1": RECORD}, order=("E1",)),
        *r) for r in MULTI_RESULT]
    + [(MarketResult, dict(digest_value="ab" * 32), *r)
       for r in MARKET_RESULT]
)


@pytest.mark.parametrize(
    "cls,base,name,bad,fragment", ROWS,
    ids=[f"{r[0].__name__}.{r[2]}-{i}" for i, r in enumerate(ROWS)])
def test_bad_field_raises_actionable_error(cls, base, name, bad, fragment):
    cls(**base)  # the base itself is valid
    with pytest.raises(ApiError, match=re.escape(fragment)):
        cls(**{**base, name: bad})


def test_every_validated_request_field_has_a_row():
    from dataclasses import fields

    for cls in (EngagementRequest, MarketRequest, MultiEngagementRequest,
                SweepRequest, BenchRequest):
        covered = {r[2] for r in ROWS if r[0] is cls}
        assert covered == {f.name for f in fields(cls)}, cls.__name__


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------

DEVIATIONS = ("multiple-bids", "split-bids", "short-allocation")
finite = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


@st.composite
def engagements(draw, z=None):
    w = draw(st.lists(finite, min_size=2, max_size=5))
    m = len(w)
    committee = draw(st.sampled_from((0, 1, 4, 7)))
    seats = draw(st.lists(st.integers(0, max(0, (committee - 1) // 3 - 1)),
                          max_size=(committee - 1) // 3 if committee else 0,
                          unique=True))
    return EngagementRequest(
        w=tuple(w), z=draw(finite) if z is None else z,
        kind=draw(st.sampled_from(("ncp-fe", "ncp-nfe"))),
        num_blocks=draw(st.integers(1, 500)),
        bidding_mode=draw(st.sampled_from(("atomic", "commit", "naive"))),
        fine_factor=draw(finite),
        redundancy=draw(st.sampled_from(("memoized", "independent"))),
        deviants=tuple(draw(st.lists(st.tuples(
            st.integers(0, m - 1), st.sampled_from(DEVIATIONS)),
            max_size=3))),
        crash=tuple(draw(st.lists(st.tuples(
            st.integers(0, m - 1), st.floats(0.0, 1.0)), max_size=2))),
        drop_rate=draw(unit),
        seed=draw(st.none() | st.integers(0, 2**31)),
        pki_seed=draw(st.none() | st.integers(0, 2**31)),
        committee=committee,
        byzantine=tuple((s, draw(st.sampled_from(
            ("silent", "equivocate", "fine-steal")))) for s in seats))


@st.composite
def markets(draw):
    processors = draw(st.integers(2, 12))
    w_low = draw(finite)
    return MarketRequest(
        rounds=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(-2**31, 2**31)),
        z=draw(finite),
        kind=draw(st.sampled_from(("ncp-fe", "ncp-nfe"))),
        num_blocks=draw(st.integers(1, 200)),
        fine_factor=draw(finite),
        processors=processors,
        cohort=draw(st.integers(2, processors)),
        w_low=w_low, w_high=w_low + draw(st.floats(0.0, 10.0)),
        arrival_rate=draw(finite),
        contention_window=draw(st.floats(0.0, 5.0)),
        max_contention=draw(st.integers(1, 8)),
        policy=draw(st.sampled_from(("fifo", "sjf", "rr"))),
        join_rate=draw(st.floats(0.0, 1.0)),
        leave_rate=draw(st.floats(0.0, 1.0)),
        deviants=tuple(draw(st.lists(st.tuples(
            st.integers(0, processors - 1), st.sampled_from(DEVIATIONS)),
            max_size=processors - 1, unique_by=lambda d: d[0]))),
        reputation_decay=draw(st.floats(0.0, 1.0)),
        admission_floor=draw(unit),
        window=draw(st.integers(1, 100)))


@st.composite
def multi_engagements(draw):
    z = draw(finite)
    subs = draw(st.lists(engagements(z=z), min_size=1, max_size=3))
    return MultiEngagementRequest(
        engagements=tuple(s.to_dict() for s in subs),
        policy=draw(st.sampled_from(("fifo", "sjf", "rr"))))


def _assert_round_trip(request):
    payload = request.to_dict()
    again = type(request).from_dict(payload)
    assert again == request
    wire = request_from_dict(json.loads(json.dumps(payload)))
    assert wire == request
    expected = hashlib.sha256(
        canonical_json(payload).encode("ascii")).hexdigest()
    assert request.digest() == again.digest() == wire.digest() == expected


@given(engagements())
def test_engagement_request_round_trips(request):
    _assert_round_trip(request)


@given(markets())
def test_market_request_round_trips(request):
    _assert_round_trip(request)


@given(multi_engagements())
def test_multi_engagement_request_round_trips(request):
    _assert_round_trip(request)
    assert tuple(s.to_dict() for s in request.sub_requests()) \
        == request.engagements
