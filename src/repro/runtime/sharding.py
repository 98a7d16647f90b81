"""Extent sharding: N agents each own a slice of one schema's extent.

The paper's FSM layer (§3) binds one agent to one component schema, so
fan-out width is capped by the number of schemas; sharding lifts that
cap by splitting a single class extension across *N* shard endpoints —
the runtime scatters one :class:`~repro.runtime.transport.ScanRequest`
per shard and merges the slices back with OID-level dedup, so answers
scale with data volume instead of schema count.

Two plan kinds partition the global OID space deterministically:

* ``hash`` — a stable CRC32 of the OID's string form modulo the shard
  count: uniform, order-free, the default;
* ``range`` — contiguous bands of the per-relation tuple numbers dealt
  round-robin (band *b*: numbers ``[k·b+1 .. (k+1)·b]`` go to shard
  ``k mod N``), preserving locality of consecutively-issued OIDs.

Both are pure functions of the OID, so the scatter side (the executor)
and the owning side (a transport filtering its extent) agree without
shared state: the whole coordinate travels inside the request as a
:class:`ShardSpec`.  A shard endpoint is named ``agent#index/of`` — the
circuit breaker, the per-agent scan histogram and the fault-injection
profiles all key on that name, so one dead shard trips (and reports)
alone instead of poisoning its siblings.

Merging is the dual of the scatter: extent slices concatenate in shard
order with duplicates dropped by OID (a retried shard, or an overlapping
plan, can never double a fact), value-set slices union.  Missing shards
are reported per logical request so the caller's failure policy can
either refuse or degrade with an exact account of what is absent.
"""

from __future__ import annotations

import dataclasses
import functools
import zlib
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import RuntimeFederationError, ShardMergeError
from .transport import ScanRequest

#: plan kinds understood by :func:`shard_of_oid`
PLAN_KINDS = ("hash", "range")

#: default contiguous-OID band width of the ``range`` plan
DEFAULT_BAND = 32


#: one entry per distinct relation coordinate; bounded so long-running
#: traffic over ever-new relations (dynamic federations, test churn)
#: cannot grow the memo without limit — eviction only costs a re-CRC
@functools.lru_cache(maxsize=4096)
def _relation_digest(agent: Any, system: Any, database: Any, relation: Any) -> int:
    return zlib.crc32(f"{agent}.{system}.{database}.{relation}".encode("utf-8"))


def _stable_hash(value: Any) -> int:
    """A process-stable hash (``hash()`` is salted per interpreter).

    Real OIDs take a fast path — a memoized CRC of the relation
    coordinate mixed with the tuple number — because ownership tests run
    once per instance per shard, i.e. O(shards × extent) times on the
    hot scatter path; anything else digests its string form.
    """
    number = getattr(value, "number", None)
    relation = getattr(value, "relation", None)
    if isinstance(number, int) and relation is not None:
        digest = _relation_digest(
            getattr(value, "agent", ""),
            getattr(value, "system", ""),
            getattr(value, "database", ""),
            relation,
        )
        # Knuth multiplicative mixing keeps consecutive numbers uniform
        return (digest ^ ((number * 0x9E3779B1) & 0xFFFFFFFF)) & 0xFFFFFFFF
    return zlib.crc32(str(value).encode("utf-8"))


def shard_of_oid(oid: Any, shards: int, kind: str = "hash", band: int = DEFAULT_BAND) -> int:
    """The shard index owning *oid* under a (*shards*, *kind*, *band*) plan.

    ``hash`` plans use a stable digest of the OID's string form; ``range``
    plans deal contiguous bands of the OID tuple *number* round-robin.
    Skolem tokens and other non-OID identities fall back to the hash —
    every identity is owned by exactly one shard either way.
    """
    if shards <= 1:
        return 0
    if kind == "range":
        number = getattr(oid, "number", None)
        if isinstance(number, int):
            return (max(number - 1, 0) // max(band, 1)) % shards
    return _stable_hash(oid) % shards


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One shard's coordinate: slot *index* of *of*, plus the plan rule.

    Carried inside :class:`~repro.runtime.transport.ScanRequest` so any
    transport can decide ownership (:meth:`owns`) without out-of-band
    plan state; hashable, so sharded requests key caches and retry
    scripts like any other request.
    """

    index: int
    of: int
    kind: str = "hash"
    band: int = DEFAULT_BAND

    def __post_init__(self) -> None:
        if self.of < 1:
            raise RuntimeFederationError(f"shard count must be >= 1, got {self.of}")
        if not 0 <= self.index < self.of:
            raise RuntimeFederationError(
                f"shard index {self.index} outside [0, {self.of})"
            )
        if self.kind not in PLAN_KINDS:
            raise RuntimeFederationError(
                f"unknown shard plan kind {self.kind!r}; choose from {PLAN_KINDS}"
            )

    @property
    def suffix(self) -> str:
        """The endpoint suffix: ``#index/of``."""
        return f"#{self.index}/{self.of}"

    def owns(self, oid: Any) -> bool:
        """Does this shard own *oid* under its plan?"""
        return shard_of_oid(oid, self.of, self.kind, self.band) == self.index

    def filter_instances(self, instances: Iterable[Any]) -> List[Any]:
        """The sub-extent this shard serves (instances carry ``.oid``).

        This runs O(shards × extent) times on the scatter path, so the
        ownership test is inlined (one :meth:`owns` call per instance
        would double the cost of sharding a large extent under the GIL);
        it must stay exactly equivalent to :func:`shard_of_oid`.
        """
        if self.of <= 1:
            return list(instances)
        index, of, band = self.index, self.of, max(self.band, 1)
        owned: List[Any] = []
        if self.kind == "range":
            for instance in instances:
                number = getattr(instance.oid, "number", None)
                if isinstance(number, int):
                    owner = (max(number - 1, 0) // band) % of
                else:
                    owner = _stable_hash(instance.oid) % of
                if owner == index:
                    owned.append(instance)
            return owned
        digests: Dict[Tuple[Any, ...], int] = {}
        for instance in instances:
            oid = instance.oid
            number = getattr(oid, "number", None)
            relation = getattr(oid, "relation", None)
            if isinstance(number, int) and relation is not None:
                key = (
                    getattr(oid, "agent", ""),
                    getattr(oid, "system", ""),
                    getattr(oid, "database", ""),
                    relation,
                )
                digest = digests.get(key)
                if digest is None:
                    digest = digests[key] = _relation_digest(*key)
                owner = (
                    (digest ^ ((number * 0x9E3779B1) & 0xFFFFFFFF)) & 0xFFFFFFFF
                ) % of
            else:
                owner = _stable_hash(oid) % of
            if owner == index:
                owned.append(instance)
        return owned


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """How one schema's extents split across *shards* agent endpoints."""

    shards: int
    kind: str = "hash"
    band: int = DEFAULT_BAND

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise RuntimeFederationError(
                f"a shard plan needs >= 1 shards, got {self.shards}"
            )
        if self.kind not in PLAN_KINDS:
            raise RuntimeFederationError(
                f"unknown shard plan kind {self.kind!r}; choose from {PLAN_KINDS}"
            )

    @classmethod
    def coerce(cls, value: "ShardPlan | int | None") -> Optional["ShardPlan"]:
        """Accept a plan, a bare shard count, or None (sharding off)."""
        if value is None or isinstance(value, cls):
            return value
        return cls(int(value))

    def spec(self, index: int) -> ShardSpec:
        return ShardSpec(index, self.shards, self.kind, self.band)

    def specs(self) -> Tuple[ShardSpec, ...]:
        return tuple(self.spec(index) for index in range(self.shards))

    def shard_of(self, oid: Any) -> int:
        return shard_of_oid(oid, self.shards, self.kind, self.band)

    def split(self, request: ScanRequest) -> Tuple[ScanRequest, ...]:
        """One shard-coordinated request per shard of *request*.

        An already-sharded request is returned as-is (idempotent), so
        callers may mix pre-split and logical requests freely.
        """
        if request.shard is not None:
            return (request,)
        return tuple(
            dataclasses.replace(request, shard=spec) for spec in self.specs()
        )


def split_requests(
    requests: Iterable[ScanRequest], plan: ShardPlan
) -> Dict[ScanRequest, Tuple[ScanRequest, ...]]:
    """Map each logical request to its per-shard scatter set (ordered)."""
    return {request: plan.split(request) for request in dict.fromkeys(requests)}


_NO_OID = object()


def merge_shard_values(op: str, slices: Sequence[Any]) -> Any:
    """Fold per-shard scan results back into one logical result.

    Extent slices concatenate in the given (shard) order with OID-level
    dedup — the first occurrence wins, so a shard that answered twice
    (retry races, overlapping plans) can never duplicate a fact.
    Value-set slices union.  An instance without an ``.oid`` cannot be
    keyed and raises :class:`~repro.errors.ShardMergeError` — hashing
    the object itself would silently collapse distinct-but-equal facts.

    Every mode hands this fold the same instance lists: multiprocess
    workers pickle theirs back as they are, and warm slices come from
    the cache.
    """
    if op == "value_set":
        merged: set = set()
        for piece in slices:
            merged.update(piece)
        return merged
    seen: set = set()
    result: List[Any] = []
    for piece in slices:
        for instance in piece:
            oid = getattr(instance, "oid", _NO_OID)
            if oid is _NO_OID:
                raise ShardMergeError(op, instance)
            if oid in seen:
                continue
            seen.add(oid)
            result.append(instance)
    return result


@dataclasses.dataclass
class ShardedOutcome:
    """Scatter/merge result: merged values plus an exact absence report.

    ``results`` maps each *logical* request to its merged value (partial
    merges included — ``missing`` says which shard indexes are absent
    from them); ``shard_results`` keeps the raw per-shard values so
    callers can fill shard-granular caches; ``failures`` carries the
    executor's per-scan failure records.
    """

    results: Dict[ScanRequest, Any]
    shard_results: Dict[ScanRequest, Any]
    missing: Dict[ScanRequest, Tuple[int, ...]]
    missing_endpoints: List[str]
    failures: List[Any]

    @property
    def partial(self) -> bool:
        return bool(self.missing)

    def warnings(self) -> List[str]:
        """One message per partially-answered logical request."""
        messages = [
            f"{request.describe()}: missing shard(s) "
            f"{', '.join(str(index) for index in indexes)}"
            for request, indexes in self.missing.items()
        ]
        messages.extend(failure.describe() for failure in self.failures)
        return messages


def merge_outcome(
    groups: Mapping[ScanRequest, Tuple[ScanRequest, ...]],
    values: Mapping[ScanRequest, Any],
    failures: Sequence[Any],
) -> ShardedOutcome:
    """Assemble a :class:`ShardedOutcome` from scatter groups + raw values.

    Shared by the threaded and asyncio executors so both modes merge —
    and report missing shards — identically.
    """
    results: Dict[ScanRequest, Any] = {}
    shard_results: Dict[ScanRequest, Any] = {}
    missing: Dict[ScanRequest, Tuple[int, ...]] = {}
    missing_endpoints: List[str] = []
    for logical, shard_requests in groups.items():
        slices: List[Any] = []
        absent: List[int] = []
        for shard_request in shard_requests:
            if shard_request in values:
                value = values[shard_request]
                shard_results[shard_request] = value
                slices.append(value)
            else:
                spec = shard_request.shard
                absent.append(spec.index if spec is not None else 0)
                missing_endpoints.append(shard_request.endpoint)
        results[logical] = merge_shard_values(logical.op, slices)
        if absent:
            missing[logical] = tuple(absent)
    return ShardedOutcome(
        results, shard_results, missing, missing_endpoints, list(failures)
    )
