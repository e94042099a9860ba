"""Serialization: instances and results to/from JSON.

Downstream users want to define scheduling instances in config files
and archive mechanism outcomes next to their job logs.  This module
provides stable, versioned JSON codecs for the public value types:

* :class:`~repro.dlt.platform.BusNetwork` — round-trippable instance
  descriptions (``{"w": [...], "z": ..., "kind": "ncp-fe", ...}``);
* :class:`~repro.core.dls_bl.MechanismResult` — archival dumps of a
  mechanism round;
* :class:`~repro.protocol.results.ProtocolResult` — archival dumps of a
  full protocol run (verdicts flattened to plain data).

Only dumps of *results* are supported (they are records, not inputs);
instances round-trip both ways.  Every payload carries a ``"format"``
tag so future schema changes stay detectable.
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.dls_bl import MechanismResult
from repro.dlt.platform import BusNetwork, NetworkKind
from repro.protocol.results import ProtocolResult

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "dumps_network",
    "loads_network",
    "mechanism_result_to_dict",
    "protocol_result_to_dict",
    "dumps_result",
]

_NETWORK_FORMAT = "repro/bus-network/v1"
_MECHANISM_FORMAT = "repro/mechanism-result/v1"
_PROTOCOL_FORMAT = "repro/protocol-result/v1"


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def network_to_dict(network: BusNetwork) -> dict:
    """Plain-data description of a scheduling instance."""
    return {
        "format": _NETWORK_FORMAT,
        "w": list(network.w),
        "z": network.z,
        "kind": network.kind.value,
        "names": list(network.names),
    }


def network_from_dict(data: dict) -> BusNetwork:
    """Rebuild an instance; validates the format tag and field types."""
    if data.get("format") != _NETWORK_FORMAT:
        raise ValueError(
            f"not a {_NETWORK_FORMAT} payload (format={data.get('format')!r})")
    try:
        kind = NetworkKind(data["kind"])
        w = tuple(float(x) for x in data["w"])
        z = float(data["z"])
        names = tuple(str(n) for n in data.get("names", ())) or ()
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed network payload: {exc}") from exc
    return BusNetwork(w, z, kind, names)


def dumps_network(network: BusNetwork, **json_kwargs) -> str:
    """JSON string for *network* (round-trips via :func:`loads_network`)."""
    return json.dumps(network_to_dict(network), **json_kwargs)


def loads_network(text: str) -> BusNetwork:
    return network_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# results (dump-only records)
# ---------------------------------------------------------------------------

def mechanism_result_to_dict(result: MechanismResult) -> dict:
    """Archival dump of a DLS-BL / DLS-ST / DLS-LN round."""
    return {
        "format": _MECHANISM_FORMAT,
        "alpha": list(result.alpha),
        "w_exec": list(result.w_exec),
        "compensations": list(result.compensations),
        "bonuses": list(result.bonuses),
        "payments": list(result.payments),
        "utilities": list(result.utilities),
        "makespan_reported": result.makespan_reported,
        "makespan_realized": result.makespan_realized,
        "user_cost": result.user_cost,
    }


def protocol_result_to_dict(result: ProtocolResult) -> dict:
    """Archival dump of a DLS-BL-NCP run (verdicts flattened)."""
    return {
        "format": _PROTOCOL_FORMAT,
        "completed": result.completed,
        "terminal_phase": result.terminal_phase.name,
        "order": list(result.order),
        "participants": list(result.participants),
        "bids": dict(result.bids),
        "alpha": dict(result.alpha),
        "phi": dict(result.phi),
        "payments": dict(result.payments),
        "balances": dict(result.balances),
        "costs": dict(result.costs),
        "utilities": dict(result.utilities),
        "fine_amount": result.fine_amount,
        "makespan_realized": result.makespan_realized,
        "user_cost": result.user_cost,
        "degraded": result.degraded,
        "crashed": list(result.crashed),
        "reallocations": dict(result.reallocations),
        "verdicts": [
            {
                "case": v.case,
                "fines": [{"who": f.who, "amount": f.amount,
                           "offence": f.offence} for f in v.fines],
                "rewards": dict(v.rewards),
                "compensated": dict(v.compensated),
                "terminates": v.terminates,
            }
            for v in result.verdicts
        ],
        "traffic": {
            "messages": result.traffic.messages,
            "bytes": result.traffic.bytes,
            "control_messages": result.traffic.control_messages,
            "control_bytes": result.traffic.control_bytes,
            "retries": result.traffic.retries,
        },
        "spans": [s.to_dict() for s in result.spans],
        # Committee-mode runs archive their quorum certificates; the key
        # is absent under the single trusted referee so pre-committee
        # dumps stay byte-identical.
        **({"certificates": [c.to_dict() for c in result.certificates]}
           if result.certificates else {}),
    }


def dumps_result(result: Any, **json_kwargs) -> str:
    """JSON string for any supported result record."""
    if isinstance(result, MechanismResult):
        return json.dumps(mechanism_result_to_dict(result), **json_kwargs)
    if isinstance(result, ProtocolResult):
        return json.dumps(protocol_result_to_dict(result), **json_kwargs)
    raise TypeError(f"unsupported result type {type(result).__name__}")
