"""The benchmark's own tests.  Run from the repository root with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

from repro.api import EngagementRequest, execute  # noqa: E402
from repro.sweep.spec import digest_records  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- inputs ------------------------------------------------------------------

def test_inputs_are_identical_across_calls():
    assert inputs.engagement(3, 5) == inputs.engagement(3, 5)
    assert inputs.market(3, 1) == inputs.market(3, 1)
    first = [r.digest() for r in inputs.served_mix(3, 200)]
    assert first == [r.digest() for r in inputs.served_mix(3, 200)]
    assert inputs.served_schedule(3, 200, 4.0) == \
        inputs.served_schedule(3, 200, 4.0)


def test_inputs_depend_on_the_seed_and_position():
    assert inputs.engagement(3, 5) != inputs.engagement(4, 5)
    assert inputs.engagement(3, 5) != inputs.engagement(3, 6)
    assert inputs.market(3, 1).digest() != inputs.market(4, 1).digest()
    assert inputs.market(3, 1).digest() != inputs.market(3, 2).digest()
    assert ([r.digest() for r in inputs.served_mix(3, 50)]
            != [r.digest() for r in inputs.served_mix(4, 50)])


def test_served_stream_shape():
    mix = inputs.served_mix(1, 2000)
    kinds = [r.TYPE for r in mix]
    for kind in ("engagement", "sweep", "multi-engagement"):
        assert kind in kinds
    distinct = len({r.digest() for r in mix})
    assert 0.10 < 1 - distinct / len(mix) < 0.20
    schedule = inputs.served_schedule(1, 2000, 40.0)
    assert schedule == sorted(schedule)
    assert 0.0 <= schedule[0] and schedule[-1] < 40.0


# -- metric names ------------------------------------------------------------

def _benchmark_json() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_fit_and_carry_units():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), (name, unit)
    bench = _benchmark_json()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == \
        list(run.WORKLOAD_NAMES)


def test_recorded_file_matches_the_inputs():
    recorded = workloads._recorded()
    assert recorded["default_seed"] == workloads.DEFAULT_SEED
    assert recorded["served_rate_per_s"] == inputs.SERVED_RATE
    for counts in recorded["counts"].values():
        assert set(counts) == set(workloads.COUNTED_LAYERS)


def test_every_per_layer_metric_has_a_source():
    sourced = (set(workloads.TIMED_LAYERS) | set(workloads.COUNTED_LAYERS)
               | {"perf.memo_hit_ratio", "perf.sigcache_hit_ratio",
                  "trace.overhead_ms", "trace.overhead_pct"})
    service = {n for n in run.PER_LAYER if n.startswith("service.")}
    assert set(run.PER_LAYER) == sourced | service


# -- output checks feed error_share -------------------------------------------

@pytest.fixture(scope="module")
def honest_record():
    return execute(EngagementRequest(w=(2.0, 3.0, 5.0, 4.0), z=0.3,
                                     pki_seed=1)).to_dict()


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("kind", ["ncp-fe", "ncp-nfe"])
def test_honest_engagements_pass(m, kind):
    record = execute(EngagementRequest(
        w=tuple(1.0 + i for i in range(m)), z=0.25, kind=kind)).to_dict()
    assert checks.check_engagement(record, m) == []


def _score(problem_lists) -> dict:
    report = workloads.Report()
    report.e2e = {name: (1.0, 1) for name in run.END_TO_END}
    for problems in problem_lists:
        report.attempted += 1
        if problems:
            report.fail("; ".join(problems))
    return run.result_line(report, trace=False)


def test_tampered_ledger_counts_as_failed(honest_record):
    tampered = copy.deepcopy(honest_record)
    tampered["outcome"]["balances"]["P1"] += 0.5
    line = _score([checks.check_engagement(honest_record, 4),
                   checks.check_engagement(tampered, 4)])
    assert (line["failed"], line["correct"]) == (1, False)
    assert line["metrics"]["ok_share"]["value"] == 0.5


def test_tampered_digest_counts_as_failed(honest_record):
    tampered = copy.deepcopy(honest_record)
    tampered["digest_value"] = "0" * 64
    assert checks.check_engagement(tampered, 4)


def test_tampered_market_record_counts_as_failed():
    record = {"rounds": 5, "digest_value": "ab" * 32,
              "summary": {"rounds": 5, "max_ledger_error": 0.0}}
    assert checks.check_market(record, 5, "ab" * 32) == []
    assert checks.check_market(record, 5, "cd" * 32)
    leaky = copy.deepcopy(record)
    leaky["summary"]["max_ledger_error"] = 1e-3
    assert checks.check_market(leaky, 5)
    assert checks.check_market(record, 6)


def test_tampered_served_digest_is_found():
    direct = [checks.stream_record(i, f"r{i}", f"d{i}") for i in range(4)]
    served = copy.deepcopy(direct)
    assert checks.compare_streams(served, direct) == []
    served[2]["result"] = "forged"
    assert checks.compare_streams(served, direct) == [2]
    assert digest_records(served) != digest_records(direct)


# -- tracing -----------------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [Span(1, None, "a", None, 0.0, 10.0),
             Span(2, 1, "b", None, 1.0, 4.0),
             Span(3, 1, "b", None, 5.0, 7.0),
             Span(4, 2, "c", None, 2.0, 3.0)]
    assert self_times(spans) == {1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0}


def test_tracing_restores_the_package_and_keeps_digests():
    import repro.api
    from repro.crypto import signatures

    request = EngagementRequest(w=(2.0, 3.0, 5.0), z=0.4, pki_seed=2)
    plain = execute(request).digest()
    before = (repro.api.execute, signatures.canonical_bytes)
    with workloads._Traced() as traced:
        traced.tracer.correlation = request.digest()
        result = repro.api.execute(request)
        traced.close_unit(request, result)
    assert result.digest() == plain
    assert (repro.api.execute, signatures.canonical_bytes) == before
    unit = traced.units[0]
    for span in ("api.execute.engagement", "core.build", "protocol.bidding",
                 "protocol.payments", "crypto.sign", "api.parse"):
        assert unit[span] > 0, span
    assert unit["agents.observe_bid"] == 9  # m^2 bid observations
    assert {s.correlation for s in traced.first_spans} == {request.digest()}


def test_flat_layers_fold_nested_calls():
    class Box:
        def outer(self, n):
            return self.outer(n - 1) if n else 0

    tracer = Tracer()
    tracer.timed(Box, "outer", "layer", flat=True)
    try:
        Box().outer(3)
    finally:
        tracer.restore()
    spans, counts = tracer.drain()
    assert [s.name for s in spans] == ["layer"]
    unit = workloads.fold_unit(spans, counts)
    assert unit["layer.calls"] == 4
