"""The versioned public API: v1 request/result value types.

Every request the reproduction can serve — a protocol engagement, a
sweep plan, a benchmark pass — and every answer it produces is one of
the frozen dataclasses here, tagged ``schema: "repro/api/v1"``.  The
CLI subcommands construct these objects from argv; the request service
(:mod:`repro.service`) parses them off its socket; both hand them to
the same executors in :mod:`repro.api.execute`, which is what makes a
service answer byte-comparable with a direct library call.

Each field declares its wire rule once, next to the field, as a
:class:`FieldSpec` (``_int(100, minimum=1)``, ``_choice("fifo", ...)``,
``sparse=True``, ...).  One generic ``__post_init__`` applies the
specs, one generic ``to_dict`` encodes every type, and a per-type
``_validate`` hook holds only the rules that relate several fields.

Stability contract
------------------
* ``to_dict`` / ``from_dict`` round-trip exactly: every field is plain
  JSON data, defaults are materialized, and ``from_dict`` rejects
  unknown keys — a v2 field can never be silently dropped by a v1
  parser.
* Validation happens at construction and raises :class:`ApiError` with
  an actionable message (what was wrong, what would be accepted).
* ``digest()`` of a request is its canonical identity: the SHA-256 of
  the canonical-JSON encoding of ``to_dict()``.  The service's
  cross-request result cache and the golden fixtures both key on it.
* Schema evolution is additive-with-defaults within v1; anything else
  ships as ``repro/api/v2`` beside (not instead of) v1, with v1
  parsing kept alive for one deprecation cycle (see DESIGN.md §4.9).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Any, Callable, Mapping

from repro.api import registry as _registry
from repro.sweep.spec import (
    PLAN_FORMAT,
    SweepPlan,
    canonical_json,
    digest_records,
)

__all__ = [
    "SCHEMA",
    "ApiError",
    "FieldSpec",
    "field_specs",
    "EngagementRequest",
    "MultiEngagementRequest",
    "SweepRequest",
    "BenchRequest",
    "MarketRequest",
    "EngagementResult",
    "MultiEngagementResult",
    "SweepResult",
    "BenchResult",
    "MarketResult",
    "ServiceStats",
    "settlement_digest",
    "parse_request",
    "parse_result",
    "request_from_dict",
    "result_from_dict",
]

SCHEMA = "repro/api/v1"

_ENGAGEMENT_KINDS = ("ncp-fe", "ncp-nfe")
_BIDDING_MODES = ("atomic", "commit", "naive")
_REDUNDANCY_MODES = ("memoized", "independent")
_ARBITER_POLICIES = ("fifo", "sjf", "rr")
_RECORD_FORMAT = "repro/protocol-result/v1"

#: Fields of a protocol-result record that constitute the *settlement*
#: — what the mechanism decided — as opposed to operational telemetry
#: (traffic counters, trace spans).  The canonical digest of a served
#: engagement covers exactly these, so a result computed on a warm
#: worker with long-lived caches digests identically to a cold direct
#: call: caches change counters, never settlements.
SETTLEMENT_FIELDS = (
    "format", "completed", "terminal_phase", "order", "participants",
    "bids", "alpha", "phi", "payments", "balances", "costs", "utilities",
    "fine_amount", "makespan_realized", "user_cost", "degraded", "crashed",
    "reallocations", "verdicts",
)


class ApiError(ValueError):
    """A request or payload failed v1 validation.

    The message always names the offending field and the accepted
    values, so it can be surfaced verbatim to CLI and service callers.
    """


def settlement_digest(record: Mapping[str, Any]) -> str:
    """Canonical digest of an engagement's settlement.

    SHA-256 over the canonical-JSON encoding of the
    :data:`SETTLEMENT_FIELDS` subset of a ``repro/protocol-result/v1``
    record.  Identical for a run served from the daemon's warm workers
    and a direct ``DLSBLNCP(...).run()`` of the same request.
    """
    subset = {k: record[k] for k in SETTLEMENT_FIELDS if k in record}
    return hashlib.sha256(canonical_json(subset).encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# value checks
# ---------------------------------------------------------------------------

def _fail(message: str) -> None:
    raise ApiError(message)


def _check_number(name: str, value, *, gt=None, ge=None, lt=None,
                  le=None) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        _fail(f"{name} must be a number; got {value!r}")
    if out != out or out in (float("inf"), float("-inf")):
        _fail(f"{name} must be finite; got {value!r}")
    if gt is not None and not out > gt:
        _fail(f"{name} must be > {gt}; got {value!r}")
    if ge is not None and not out >= ge:
        _fail(f"{name} must be >= {ge}; got {value!r}")
    if lt is not None and not out < lt:
        _fail(f"{name} must be < {lt}; got {value!r}")
    if le is not None and not out <= le:
        _fail(f"{name} must be <= {le}; got {value!r}")
    return out


def _check_int(name: str, value, *, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        try:
            as_int = int(value)
        except (TypeError, ValueError):
            _fail(f"{name} must be an integer; got {value!r}")
        if not isinstance(value, float) or as_int != value:
            _fail(f"{name} must be an integer; got {value!r}")
        value = as_int
    if minimum is not None and value < minimum:
        _fail(f"{name} must be >= {minimum}; got {value}")
    return int(value)


def _check_indices(name: str, pairs, limit: int, population: str) -> None:
    """Cross-field rule: every pair's index addresses one of *limit*."""
    for idx, _ in pairs:
        if idx >= limit:
            _fail(f"{name} {idx} out of range for {population}")


def _number(**bounds) -> Callable:
    return lambda name, value: _check_number(name, value, **bounds)


def _boolean(name: str, value) -> bool:
    if not isinstance(value, bool):
        _fail(f"{name} must be true or false; got {value!r}")
    return value


def _typename(value) -> str:
    return type(value).__name__


def _named(what: str, catalogue: Callable[[], list]) -> Callable:
    """Check a name against a catalogue imported on first use (the
    agent and quorum layers import this package's parents)."""
    def check(name, value):
        names = catalogue()
        if value not in names:
            _fail(f"unknown {what} {value!r}; choose from {names}")
        return str(value)
    return check


@functools.cache
def _deviation_names() -> list:
    from repro.agents.behaviors import Deviation

    return sorted(d.value for d in Deviation)


@functools.cache
def _referee_strategies() -> list:
    from repro.core.quorum import BYZANTINE_STRATEGIES

    return list(BYZANTINE_STRATEGIES)


def _seq(must: str, item=None, *, min_len=0, into=tuple) -> Callable:
    """A list (``"{name} must {must}"`` otherwise); *item* checks each
    entry as ``{name}[i]``."""
    def check(name, value):
        if not isinstance(value, (list, tuple)) or len(value) < min_len:
            _fail(f"{name} must {must}; got {value!r}")
        if item is None:
            return into(value)
        return into(item(f"{name}[{i}]", v) for i, v in enumerate(value))
    return check


def _obj(must: str, of=None, *, key=None, got=repr) -> Callable:
    """An object (``"{name} must {must}"`` otherwise), holding *key* if
    given; *of* checks each value as ``{name}[key]``, keys as strings."""
    def check(name, value):
        if not isinstance(value, Mapping) or (key and key not in value):
            _fail(f"{name} must {must}; got {got(value)}")
        if of is None:
            return dict(value)
        return {str(k): of(f"{name}[{k!r}]", v) for k, v in value.items()}
    return check


def _sweep_plan(name: str, value):
    if not isinstance(value, Mapping):
        _fail(f"{name} must be a {PLAN_FORMAT} JSON object; "
              f"got {_typename(value)}")
    try:
        SweepPlan.from_dict(value)
    except ValueError as exc:
        _fail(f"{name} is not a valid {PLAN_FORMAT} payload: {exc}")
    return value


def _protocol_record(name: str, value):
    if not isinstance(value, Mapping):
        _fail(f"{name} must be a {_RECORD_FORMAT} object; "
              f"got {_typename(value)}")
    fmt = value.get("format")
    if fmt != _RECORD_FORMAT:
        _fail(f"{name}.format must be '{_RECORD_FORMAT}'; got {fmt!r}")
    return value


def _protocol_records(name: str, value) -> dict:
    if not isinstance(value, Mapping) or not value:
        _fail(f"{name} must map engagement ids to {_RECORD_FORMAT} "
              f"objects; got {value!r}")
    for eid, rec in value.items():
        if not isinstance(rec, Mapping) or rec.get("format") != _RECORD_FORMAT:
            _fail(f"{name}[{eid!r}] must be a {_RECORD_FORMAT} object")
    return dict(value)


def _stream_digest(name: str, value) -> str:
    if not isinstance(value, str) or not value:
        _fail(f"{name} must be the run's stream digest (a hex string); "
              f"got {value!r}")
    return value


# ---------------------------------------------------------------------------
# field specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """The wire rule of one v1 field, carried in its field metadata.

    ``check(name, value)`` validates a constructor argument and returns
    its normalized value (``None``: taken as given).  A ``sparse`` field
    is omitted from :meth:`_Payload.to_dict` at its ``default``, so
    fields added after the first v1 emissions leave older payloads and
    their digests byte-identical.  ``type``, ``choices`` and ``help``
    describe the field to generated command-line flags
    (``repro market``).
    """

    default: Any = None
    check: Callable[[str, Any], Any] | None = None
    sparse: bool = False
    type: type | None = None
    choices: tuple | None = None
    help: str | None = None


def _spec(default, check=None, **spec):
    """A dataclass field carrying its :class:`FieldSpec`."""
    meta = {"v1": FieldSpec(default, check, **spec)}
    if isinstance(default, dict):
        return field(default_factory=dict, metadata=meta)
    return field(default=default, metadata=meta)


def _int(default, *, minimum=None, **spec):
    def check(name, value):
        if value is None and default is None:
            return None
        return _check_int(name, value, minimum=minimum)
    return _spec(default, check, type=int, **spec)


def _num(default, *, gt=None, ge=None, lt=None, le=None, **spec):
    return _spec(default, _number(gt=gt, ge=ge, lt=lt, le=le), type=float,
                 **spec)


def _choice(default, choices, *, explain=None, **spec):
    """One of *choices*; *explain* maps a tempting wrong value to its own
    message."""
    def check(name, value):
        if value not in choices:
            if isinstance(value, str) and value in (explain or {}):
                _fail(explain[value])
            _fail(f"{name} must be one of {list(choices)}; got {value!r}")
        return value
    return _spec(default, check, choices=choices, **spec)


def _pairs(first: str, second: str, check_second, **spec):
    """A tuple of ``[first, second]`` pairs, *first* a non-negative
    integer index (its upper bound is a cross-field rule)."""
    def check(name, value):
        pairs = []
        for entry in value:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                _fail(f"each {name} entry must be [{first}, {second}]; "
                      f"got {entry!r}")
            pairs.append((_check_int(f"{name} {first}", entry[0], minimum=0),
                          check_second(f"{name} {second}", entry[1])))
        return tuple(pairs)
    return _spec((), check, **spec)


def _deviants():
    """``[index, deviation-name]`` pairs: resident deviating agents."""
    return _pairs("index", "name", _named("deviation", _deviation_names))


_SCALARS = frozenset({str, int, float, bool, type(None)})


def _plain(value):
    """JSON-ready copy of a non-scalar: tuples become lists, mappings
    are copied one level deep."""
    if isinstance(value, (tuple, list)):
        return [v if type(v) in _SCALARS else _plain(v) for v in value]
    if isinstance(value, Mapping):
        return dict(value)
    return value


def _v1(cls):
    """Declare a v1 value type: a frozen dataclass whose field specs are
    tabulated once, here, rather than on every construction."""
    cls = dataclass(frozen=True)(cls)
    cls._SPECS = MappingProxyType({
        f.name: f.metadata.get("v1") or FieldSpec(f.default)
        for f in fields(cls)})
    cls._CHECKS = tuple((name, spec.check)
                        for name, spec in cls._SPECS.items() if spec.check)
    return cls


def field_specs(cls) -> Mapping[str, FieldSpec]:
    """Field name -> :class:`FieldSpec` of a v1 type, in declaration
    (wire) order."""
    return cls._SPECS


class _Payload:
    """Shared validation and canonical-encoding plumbing for every v1
    value type (declared with :func:`_v1`)."""

    TYPE = ""  # overridden

    def __post_init__(self) -> None:
        for name, check in self._CHECKS:
            object.__setattr__(self, name, check(name, getattr(self, name)))
        self._validate()

    def _validate(self) -> None:
        """Rules relating several fields (none unless overridden)."""

    def _match_digest(self, expected: str, what: str) -> None:
        """Fill ``digest_value`` in, or refuse one that disagrees with
        the content it claims to identify."""
        if not self.digest_value:
            object.__setattr__(self, "digest_value", expected)
        elif self.digest_value != expected:
            _fail(f"digest_value does not match the {what} "
                  f"(expected {expected}, got {self.digest_value}) — "
                  "payload corrupted in transit?")

    def to_dict(self) -> dict:
        """The tagged wire payload: every field in declaration order,
        sparse fields omitted at their default."""
        body = {"schema": SCHEMA, "type": self.TYPE}
        for name, spec in self._SPECS.items():
            value = getattr(self, name)
            if not (spec.sparse and value == spec.default):
                body[name] = (value if type(value) in _SCALARS
                              else _plain(value))
        return body

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Parse a tagged payload: envelope first, then the fields."""
        if not isinstance(data, Mapping):
            _fail(f"a {cls.TYPE} payload must be a JSON object; "
                  f"got {_typename(data)}")
        schema = data.get("schema")
        if schema != SCHEMA:
            _fail(f"expected schema {SCHEMA!r}; got {schema!r} "
                  f"(is this payload from a newer API version?)")
        kind = data.get("type")
        if kind != cls.TYPE:
            _fail(f"expected type {cls.TYPE!r}; got {kind!r}")
        body = {k: v for k, v in data.items() if k not in ("schema", "type")}
        unknown = sorted(set(body) - cls._SPECS.keys())
        if unknown:
            _fail(f"unknown {cls.TYPE} field(s) {unknown}; "
                  f"valid fields: {sorted(cls._SPECS)}")
        return cls(**body)

    def canonical(self) -> str:
        """Canonical JSON encoding (sorted keys, no whitespace)."""
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """The value's stable identity.

        A result carrying a ``digest_value`` (settlement, record-stream
        or round-stream digest) *is* that digest, so telemetry such as
        ``cached`` never changes it; anything else is the SHA-256 of
        :meth:`canonical`.
        """
        identity = getattr(self, "digest_value", None)
        if identity is not None:
            return identity
        return hashlib.sha256(self.canonical().encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

@_v1
class EngagementRequest(_Payload):
    """One DLS-BL-NCP engagement, fully described as plain data.

    Mirrors what ``repro protocol`` accepts from argv: the instance
    (``w``, ``kind``, ``z``), the engagement options, deviating agents
    (``deviants``: ``[index, deviation-name]`` pairs), injected faults
    (``crash``: ``[index, progress]`` pairs; ``drop_rate`` with
    ``seed``), and the determinism hook ``pki_seed``.

    ``committee`` (with optional ``byzantine`` ``[seat, strategy]``
    pairs) replaces the single trusted referee with an N-member quorum
    committee.  Both fields are *sparse* on the wire: ``to_dict``
    omits them at their defaults, so pre-committee payloads and their
    digests are unchanged (additive-with-defaults evolution).
    """

    TYPE = "engagement"

    w: tuple[float, ...] = _spec((), _seq(
        "list at least 2 per-unit processing times", _number(gt=0.0),
        min_len=2))
    z: float = _num(0.0, gt=0.0)
    kind: str = _choice("ncp-fe", _ENGAGEMENT_KINDS, explain={
        "cp": "kind 'cp' has a trusted control processor — engagements "
              "run the distributed protocol; use the `mechanism` "
              "subcommand / repro.core.DLSBL for the CP system, or one "
              f"of {list(_ENGAGEMENT_KINDS)}"})
    num_blocks: int = _int(120, minimum=1)
    bidding_mode: str = _choice("atomic", _BIDDING_MODES)
    fine_factor: float = _num(2.0, gt=0.0)
    redundancy: str = _choice("memoized", _REDUNDANCY_MODES)
    deviants: tuple[tuple[int, str], ...] = _deviants()
    crash: tuple[tuple[int, float], ...] = _pairs(
        "index", "progress", _number(ge=0.0, le=1.0))
    drop_rate: float = _num(0.0, ge=0.0, lt=1.0)
    seed: int | None = _int(None)
    pki_seed: int | None = _int(None)
    committee: int = _int(0, minimum=0, sparse=True)
    byzantine: tuple[tuple[int, str], ...] = _pairs(
        "seat", "strategy", _named("referee strategy", _referee_strategies),
        sparse=True)

    def _validate(self) -> None:
        m = len(self.w)
        _check_indices("deviants index", self.deviants, m, f"{m} processors")
        _check_indices("crash index", self.crash, m, f"{m} processors")
        if not self.byzantine:
            return
        if not self.committee:
            _fail("byzantine referees need a committee; set committee >= 1")
        _check_indices("byzantine seat", self.byzantine, self.committee,
                       f"a {self.committee}-member committee")
        seats = [s for s, _ in self.byzantine]
        if len(set(seats)) != len(seats):
            _fail(f"byzantine seats must be distinct; got {seats}")
        from repro.core.quorum import tolerated_faults

        limit = tolerated_faults(self.committee)
        if len(seats) > limit:
            _fail(f"a {self.committee}-member committee tolerates at most "
                  f"{limit} Byzantine member(s) (f = (N-1)//3); "
                  f"got {len(seats)}")

    def engine_config(self, *, memo=None, signature_cache=None):
        """The :class:`repro.core.dls_bl_ncp.EngineConfig` this request
        describes (optionally wired to a host's long-lived caches)."""
        from repro.agents.behaviors import AgentBehavior, Deviation
        from repro.core.dls_bl_ncp import EngineConfig
        from repro.core.fines import FinePolicy
        from repro.network.faults import CrashFault, FaultPlan, MessageFault
        from repro.protocol.phases import Phase

        behaviors: dict[int, AgentBehavior] = {}
        for idx, name in self.deviants:
            existing = behaviors.get(idx)
            devs = ((existing.deviations if existing else frozenset())
                    | {Deviation(name)})
            behaviors[idx] = AgentBehavior(deviations=devs)

        names = [f"P{i + 1}" for i in range(len(self.w))]
        crashes = tuple(
            CrashFault(names[idx], phase=Phase.PROCESSING_LOAD,
                       progress=progress)
            for idx, progress in self.crash)
        messages = ()
        if self.drop_rate:
            messages = (MessageFault(action="drop",
                                     probability=self.drop_rate),)
        fault_plan = None
        if crashes or messages:
            fault_plan = FaultPlan(seed=self.seed or 0, crashes=crashes,
                                   messages=messages)
        committee = None
        if self.committee:
            from repro.core.quorum import CommitteeConfig

            committee = CommitteeConfig(size=self.committee,
                                        byzantine=self.byzantine)
        return EngineConfig(
            behaviors=behaviors or None,
            policy=FinePolicy(self.fine_factor),
            num_blocks=self.num_blocks,
            bidding_mode=self.bidding_mode,
            fault_plan=fault_plan,
            redundancy=self.redundancy,
            pki_seed=self.pki_seed,
            memo=memo if self.redundancy == "memoized" else None,
            signature_cache=signature_cache,
            committee=committee,
        )


@_v1
class SweepRequest(_Payload):
    """A sweep plan (``repro/sweep-plan/v1`` payload) plus execution
    options the server may honour (``workers``)."""

    TYPE = "sweep"

    plan: dict = _spec({}, _sweep_plan)
    workers: int = _int(1, minimum=1)

    def build_plan(self) -> SweepPlan:
        """Parse the embedded plan into a :class:`SweepPlan`."""
        return SweepPlan.from_dict(self.plan)


@_v1
class BenchRequest(_Payload):
    """One pass of the perf kernels (no regression gate, no report
    file — a measurement, so the service never caches it)."""

    TYPE = "bench"

    quick: bool = _spec(True, _boolean)
    workers: int = _int(1, minimum=1)


@_v1
class MultiEngagementRequest(_Payload):
    """K engagements multiplexed over one shared bus, as plain data.

    ``engagements`` is a tuple of complete :class:`EngagementRequest`
    payloads (each with its own schema/type envelope — the sub-payloads
    are first-class v1 values, so a client can promote a solo request
    into a multi-engagement one by wrapping it unchanged).  All entries
    must share ``z``: engagements contending for one physical bus share
    its per-unit communication time by definition.  ``policy`` selects
    the bus-window granting discipline
    (:data:`repro.protocol.arbiter.POLICIES`).

    Engagement ids are assigned deterministically — ``E1 .. EK`` in
    submission order — so the same payload always produces the same
    result keys (and therefore the same digests).
    """

    TYPE = "multi-engagement"

    engagements: tuple = _spec((), _seq(
        "list at least 1 engagement payload",
        _obj("be an engagement payload object", got=_typename), min_len=1))
    policy: str = _choice("fifo", _ARBITER_POLICIES)

    def _validate(self) -> None:
        subs = []
        for pos, entry in enumerate(self.engagements):
            try:
                subs.append(EngagementRequest.from_dict(entry))
            except ApiError as exc:
                _fail(f"engagements[{pos}]: {exc}")
        z0 = subs[0].z
        for pos, sub in enumerate(subs[1:], start=1):
            if abs(sub.z - z0) > 1e-12:
                _fail(f"engagements sharing a bus share its z; "
                      f"engagements[0].z = {z0} but "
                      f"engagements[{pos}].z = {sub.z}")
        # Kept (outside the dataclass fields, so equality, the wire
        # shape and the digest are unaffected) for sub_requests().
        object.__setattr__(self, "_subs", tuple(subs))

    @property
    def z(self) -> float:
        return self._subs[0].z

    @property
    def engagement_ids(self) -> tuple[str, ...]:
        return tuple(f"E{i + 1}" for i in range(len(self.engagements)))

    def sub_requests(self) -> tuple[EngagementRequest, ...]:
        """The embedded engagements, parsed (once, at construction)."""
        return self._subs

    def jobs(self, *, memo=None, signature_cache=None) -> tuple:
        """The :class:`repro.protocol.arbiter.EngagementJob` tuple this
        request describes (optionally wired to a host's caches)."""
        from repro.dlt.platform import NetworkKind
        from repro.protocol.arbiter import EngagementJob

        return tuple(
            EngagementJob(
                engagement_id=eid,
                w=sub.w,
                kind=NetworkKind(sub.kind),
                config=sub.engine_config(memo=memo,
                                         signature_cache=signature_cache))
            for eid, sub in zip(self.engagement_ids, self.sub_requests()))


@_v1
class MarketRequest(_Payload):
    """A seeded long-horizon market simulation, as plain data.

    Describes everything the :mod:`repro.market` simulator needs: the
    engagement template (``z``, ``kind``, ``num_blocks``,
    ``fine_factor``), the processor population (``processors`` members
    with per-unit times drawn uniformly from ``[w_low, w_high]``; a
    round hires a ``cohort``-sized subset), the open-loop arrival
    process (``arrival_rate`` engagements per unit time — arrivals
    closer together than ``contention_window`` contend for the bus in
    one multi-engagement round of at most ``max_contention``, granted
    under ``policy``), the churn process (``join_rate``/``leave_rate``
    per round; a leave that lands on a hired processor mid-round
    becomes a Processing-phase crash fault and takes the survivor
    re-allocation path), the resident deviants (``deviants``:
    ``[index, deviation-name]`` pairs over the *founding* population,
    exactly as in :class:`EngagementRequest`), and the reputation
    model (``reputation_decay``, ``admission_floor`` — see DESIGN.md
    §4.14).  ``window`` sets the bucket width of the windowed
    timeseries in the result.

    The ``help`` texts are the ``repro market`` flags' help.
    """

    TYPE = "market"

    rounds: int = _int(100, minimum=1, help="market rounds to simulate")
    seed: int = _int(0, help="run seed (same seed = same stream digest)")
    z: float = _num(0.4, gt=0.0, help="per-unit bus communication time")
    kind: str = _choice("ncp-fe", _ENGAGEMENT_KINDS,
                        help="engagement system model")
    num_blocks: int = _int(16, minimum=1,
                           help="load blocks per engagement")
    fine_factor: float = _num(2.0, gt=0.0)
    processors: int = _int(6, minimum=2, help="founding population size")
    cohort: int = _int(3, minimum=2, help="processors hired per engagement")
    w_low: float = _num(1.5, gt=0.0)
    w_high: float = _num(6.0)
    arrival_rate: float = _num(2.0, gt=0.0,
                               help="engagement arrivals per unit time")
    contention_window: float = _num(
        0.0, ge=0.0, help="arrivals closer than this contend for the bus "
                          "in one round (0: every round solo)")
    max_contention: int = _int(
        3, minimum=1, help="max engagements sharing one contended round")
    policy: str = _choice("fifo", _ARBITER_POLICIES,
                          help="bus-window policy for contended rounds")
    join_rate: float = _num(0.0, ge=0.0, le=1.0,
                            help="per-round probability a processor joins")
    leave_rate: float = _num(
        0.0, ge=0.0, le=1.0, help="per-round probability a processor "
                                  "leaves; a hired leaver crashes "
                                  "mid-round (survivor re-allocation path)")
    deviants: tuple[tuple[int, str], ...] = _deviants()
    reputation_decay: float = _num(0.8, ge=0.0, le=1.0,
                                   help="reputation EMA decay")
    admission_floor: float = _num(0.2, ge=0.0, lt=1.0,
                                  help="minimum reputation to be hired")
    window: int = _int(25, minimum=1,
                       help="timeseries bucket width in rounds")

    def _validate(self) -> None:
        if self.cohort > self.processors:
            _fail(f"cohort must be <= processors; got cohort={self.cohort} "
                  f"with processors={self.processors}")
        _check_number("w_high", self.w_high, ge=self.w_low)
        _check_indices("deviants index", self.deviants, self.processors,
                       f"{self.processors} processors")
        if len({i for i, _ in self.deviants}) >= self.processors:
            _fail("deviants cannot cover the whole founding population; "
                  "leave at least one honest processor")


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@_v1
class EngagementResult(_Payload):
    """Answer to an :class:`EngagementRequest`.

    ``outcome`` is the full ``repro/protocol-result/v1`` record
    (settlement + traffic + per-phase trace spans); ``digest`` is its
    :func:`settlement_digest`; ``cached`` marks answers the service
    replayed from its cross-request result cache.
    """

    TYPE = "engagement-result"

    outcome: dict = _spec({}, _protocol_record)
    digest_value: str = ""
    cached: bool = False

    def _validate(self) -> None:
        if not self.digest_value:
            object.__setattr__(self, "digest_value",
                               settlement_digest(self.outcome))

    @property
    def completed(self) -> bool:
        return bool(self.outcome.get("completed"))

    @property
    def spans(self) -> list:
        return list(self.outcome.get("spans", ()))


@_v1
class SweepResult(_Payload):
    """Answer to a :class:`SweepRequest`.

    ``records`` and ``digest_value`` follow the sweep engine's
    determinism contract (byte-identical to the serial reference loop);
    ``telemetry`` carries the operational extras (shards, traffic,
    phases, restarts) excluded from the digest.
    """

    TYPE = "sweep-result"

    records: tuple = _spec((), _seq("be a list"))
    digest_value: str = ""
    workers: int = 1
    telemetry: dict = field(default_factory=dict)
    cached: bool = False

    def _validate(self) -> None:
        self._match_digest(digest_records(self.records), "record stream")

    @classmethod
    def from_run(cls, run, *, cached: bool = False) -> "SweepResult":
        """Fold a :class:`repro.sweep.SweepResult` execution record."""
        return cls(
            records=tuple(run.records),
            digest_value=run.digest(),
            workers=run.workers,
            telemetry={
                "restarts": run.restarts,
                "shards": [s.to_dict() for s in run.shards],
                "traffic": run.traffic.to_dict(),
                "phases": run.phases.to_dict(),
            },
            cached=cached,
        )


@_v1
class BenchResult(_Payload):
    """Answer to a :class:`BenchRequest`: kernel → best-of-N seconds."""

    TYPE = "bench-result"

    timings: dict = _spec({}, _obj("map kernel names to seconds",
                                   lambda name, value: float(value),
                                   got=_typename))
    quick: bool = True
    cached: bool = False


@_v1
class MultiEngagementResult(_Payload):
    """Answer to a :class:`MultiEngagementRequest`.

    ``outcomes`` maps each engagement id to its full
    ``repro/protocol-result/v1`` record — the same records a solo run
    of that engagement emits, so everything downstream of a solo result
    works per engagement unchanged.  ``digest_value`` is the SHA-256 of
    the canonical ``{id: settlement_digest(outcome)}`` map: it pins
    *settlements only* (flow telemetry legitimately varies with the
    granting policy), which is how the differential suite asserts the
    arbiter path, the daemon and the serial reference executor agree
    byte-for-byte where it matters.
    """

    TYPE = "multi-engagement-result"

    outcomes: dict = _spec({}, _protocol_records)
    policy: str = _choice("fifo", _ARBITER_POLICIES)
    order: tuple = _spec((), _seq("be a list", lambda name, value: str(value)))
    completions: dict = _spec({}, _obj(
        "map engagement ids to completion times", _number(ge=0.0)))
    digest_value: str = ""
    cached: bool = False

    def _validate(self) -> None:
        if sorted(self.order) != sorted(self.outcomes):
            _fail(f"order {list(self.order)} must be a permutation of the "
                  f"outcome ids {sorted(self.outcomes)}")
        self._match_digest(hashlib.sha256(canonical_json(
            {eid: settlement_digest(rec)
             for eid, rec in self.outcomes.items()}
        ).encode("ascii")).hexdigest(), "settlement map")

    @property
    def mean_flow_time(self) -> float:
        comps = list(self.completions.values())
        return sum(comps) / len(comps) if comps else 0.0

    @property
    def makespan(self) -> float:
        return max(self.completions.values()) if self.completions else 0.0


@_v1
class MarketResult(_Payload):
    """Answer to a :class:`MarketRequest`.

    ``digest_value`` is the market's *stream digest*: the per-round
    records, folded through :class:`repro.sweep.spec.StreamDigest` in
    round order.  It is the result's identity — the same seeded run on
    any topology (direct call, daemon, fleet shard) must reproduce it
    bit-for-bit, which is what the market soak tier asserts.  The round
    records themselves are **not** carried on the wire (a million-round
    soak would not fit); the result keeps the digest plus the windowed
    ``series``, the final ``reputations``, and scalar ``summary``
    tallies — everything :mod:`repro.analysis.timeseries` consumes.
    ``cached`` is telemetry and excluded from the identity.
    """

    TYPE = "market-result"

    rounds: int = _int(0, minimum=0)
    digest_value: str = _spec("", _stream_digest)
    summary: dict = _spec({}, _obj("be an object"))
    series: dict = _spec({}, _obj("map series names to value lists",
                                  _seq("be a list", into=list)))
    reputations: dict = _spec({}, _obj("map processor ids to scores",
                                       _number(ge=0.0, le=1.0)))
    cached: bool = False


@_v1
class ServiceStats(_Payload):
    """Service-level counters (answer to a ``stats`` request)."""

    TYPE = "stats-result"

    requests: int = 0
    by_type: dict = field(default_factory=dict)
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    expired: int = 0
    cache_hits: int = 0
    queue_depth: int = 0
    queue_capacity: int = 0
    in_flight: int = 0
    workers: int = 1
    pool_rebuilds: int = 0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    uptime: float = 0.0


@_v1
class FleetStatsResult(_Payload):
    """Aggregate view of a daemon fleet (answer to ``repro fleet``).

    ``daemons`` lists one entry per endpoint in shard order — the
    endpoint string, a ``healthy`` flag, and the daemon's own
    ``stats-result`` payload (``null`` when unreachable).
    ``dispatcher`` carries the router-side tallies (requests routed,
    failovers, cache peeks/hits, quarantine churn).
    """

    TYPE = "fleet-stats-result"

    daemons: tuple = _spec((), _seq("be a list", _obj(
        "be an object with an 'endpoint'", key="endpoint")))
    dispatcher: dict = _spec({}, _obj("be an object"))

    @property
    def healthy(self) -> int:
        return sum(1 for d in self.daemons if d.get("healthy"))


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------
#
# Parsing dispatch lives in :mod:`repro.api.registry`; importing this
# module registers every v1 value type.  Executors are attached by
# :mod:`repro.api.execute` when it is imported — two-phase by design,
# so parsing a payload never drags the engine layers in.

for _request_cls in (EngagementRequest, MultiEngagementRequest,
                     SweepRequest, MarketRequest):
    _registry.register_request(_request_cls)
# A bench answer is a wall-clock measurement, not a value: replaying it
# from the digest-keyed result cache would defeat its purpose.
_registry.register_request(BenchRequest, cacheable=False)

for _result_cls in (EngagementResult, MultiEngagementResult, SweepResult,
                    BenchResult, MarketResult, ServiceStats,
                    FleetStatsResult):
    _registry.register_result(_result_cls)

#: Live views of the registry — late registrations show up here too.
REQUEST_TYPES: dict[str, type] = _registry.REQUEST_CLASSES
RESULT_TYPES: dict[str, type] = _registry.RESULT_CLASSES

#: Parse any v1 request / result payload, dispatching on its ``type``
#: tag (the ``*_from_dict`` spellings are the same functions).
parse_request = request_from_dict = _registry.parse_request
parse_result = result_from_dict = _registry.parse_result
