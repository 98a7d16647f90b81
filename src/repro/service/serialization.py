"""Wire serialization: runtime objects to JSON-safe structures.

One vocabulary serves every machine-readable surface: the HTTP
endpoints of the federation service and the CLI's ``query --json``
output share :func:`stats_to_dict`, so a dashboard scraping
``GET /tenants/{id}/stats`` and a script parsing CLI output read the
same shape.  :func:`json_safe` flattens the model types a federated
answer row can carry — :class:`~repro.model.oids.OID` values become
their dotted string form, multivalued attributes (frozensets) become
sorted lists — without the service layer knowing the model's internals.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from ..errors import QueryError
from ..federation.query import FederatedQuery
from ..model.oids import OID
from ..runtime.metrics import RuntimeStats


#: types :func:`json_safe` passes through unchanged, matched exactly
_PRIMITIVES = frozenset({type(None), bool, int, float, str})


def json_safe(value: Any) -> Any:
    """Recursively coerce *value* into JSON-serializable primitives.

    OIDs render as their dotted string form; sets (multivalued
    attribute values) become sorted lists so output is deterministic;
    anything else unknown falls back to ``str``.

    Answer rows are plain dicts of primitives, so the common types are
    dispatched on their exact ``type()``; only subclasses and other
    mappings reach the ``isinstance`` chain (an ABC check against
    ``Mapping`` on every value cost a fifth of a serialized query).
    """
    kind = type(value)
    if kind in _PRIMITIVES:
        return value
    if kind is dict:
        return {str(key): json_safe(item) for key, item in value.items()}
    if kind is list or kind is tuple:
        return [json_safe(item) for item in value]
    if kind is OID:
        return str(value)
    if kind is set or kind is frozenset:
        return sorted((json_safe(item) for item in value), key=repr)
    return _json_safe_subclass(value)


def _json_safe_subclass(value: Any) -> Any:
    """:func:`json_safe` for values whose exact type it does not list."""
    if isinstance(value, OID):  # before str, which it subclasses
        return str(value)
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((json_safe(item) for item in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return str(value)


def rows_to_json(rows: Any) -> List[Dict[str, Any]]:
    """Federated answer rows as JSON-safe dicts (order preserved)."""
    return [json_safe(row) for row in rows]


def stats_to_dict(stats: RuntimeStats) -> Dict[str, Any]:
    """A :class:`RuntimeStats` snapshot (or delta) as a JSON document.

    The shape mirrors :meth:`RuntimeStats.describe` — counters, the
    per-agent scan histogram, the granules evicted by delta-feed
    fallbacks, missing shard endpoints and phase timers (milliseconds)
    — with keys sorted for stable output.
    """
    return {
        "counters": {name: stats.counters[name] for name in sorted(stats.counters)},
        "agent_scans": {
            agent: stats.agent_scans[agent] for agent in sorted(stats.agent_scans)
        },
        "fallback_invalidations": {
            granule: stats.fallback_invalidations[granule]
            for granule in sorted(stats.fallback_invalidations)
        },
        "missing_shards": {
            endpoint: stats.missing_shards[endpoint]
            for endpoint in sorted(stats.missing_shards)
        },
        "timers": {
            phase: {
                "count": timer.count,
                "total_ms": round(timer.total * 1000.0, 3),
                "mean_ms": round(timer.mean * 1000.0, 3),
                "max_ms": round(timer.max * 1000.0, 3),
            }
            for phase, timer in sorted(stats.timers.items())
        },
    }


def payload_to_query(payload: Any) -> Tuple[FederatedQuery, bool]:
    """Decode a query-endpoint body into ``(query, appendix_b)``.

    Accepts the shapes :meth:`FederatedQuery.from_payload` understands
    plus an optional boolean ``appendix_b`` switching the tenant to the
    top-down evaluator for this request.
    """
    if not isinstance(payload, Mapping):
        raise QueryError("the query endpoint expects a JSON object body")
    appendix_b = payload.get("appendix_b", False)
    if not isinstance(appendix_b, bool):
        raise QueryError("payload key 'appendix_b' must be a boolean")
    return FederatedQuery.from_payload(payload), appendix_b
