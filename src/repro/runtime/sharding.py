"""Extent sharding: N agents each own a slice of one schema's extent.

The paper's FSM layer (§3) binds one agent to one component schema, so
fan-out width is capped by the number of schemas; sharding lifts that
cap by splitting a single class extension across *N* shard endpoints —
the runtime scatters one :class:`~repro.runtime.transport.ScanRequest`
per shard and merges the slices back with OID-level dedup, so answers
scale with data volume instead of schema count.

A shard plan partitions the global OID space by hash: a stable CRC32
of the OID's relation coordinate (``agent.system.db.relation``) mixed
with its tuple number, modulo the shard count — uniform and order-free.
The owner is a pure function of the OID, so the scatter side (the
executor) and the owning side agree without shared state: the whole
coordinate travels inside the request as a :class:`ShardSpec`.  And
since §3 gives tuple *n* of a relation the OID
``agent.system.db.relation.n``, the owner is known from the tuple number
alone (:meth:`ShardSpec.number_predicate`): ownership is decided **at
the source, before the transformation**.  A shard endpoint's scan skips
the rows it does not own before any coercion, data mapping, FK lookup or
OID construction, so N shards transform the extent once between them
instead of N times.  In-memory object databases, whose instances exist
already, filter them with the same formula
(:meth:`ShardSpec.filter_instances`).

A shard endpoint is named ``agent#index/of`` — the circuit breaker, the
per-agent scan histogram and the fault-injection profiles all key on
that name, so one dead shard trips (and reports) alone instead of
poisoning its siblings.  The same holds for bad data: a row that fails
the §3 coercion (:class:`~repro.errors.SourceFormatError`) fails only
the endpoint that owns it, because its siblings never transform it.
Under the ``partial`` policy the answer lacks exactly that shard's slice
and ``missing_endpoints`` names it; under ``error`` the query raises.

Merging is the dual of the scatter: extent slices concatenate in shard
order with duplicates dropped by OID (a retried shard can never double
a fact).  Missing shards are reported per logical request so the
caller's failure policy can either refuse or degrade with an exact
account of what is absent.
"""

from __future__ import annotations

import dataclasses
import functools
import zlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import RuntimeFederationError, ShardMergeError
from ..model.oids import OID, SEPARATOR
from .transport import ScanRequest

#: one entry per distinct relation coordinate; bounded so long-running
#: traffic over ever-new relations (dynamic federations, test churn)
#: cannot grow the memo without limit — eviction only costs a re-CRC
@functools.lru_cache(maxsize=4096)
def _relation_digest(prefix: str) -> int:
    """CRC32 of a relation's dotted coordinate ``agent.system.db.relation``."""
    return zlib.crc32(prefix.encode("utf-8"))


def _number_owner(prefix: str, shards: int) -> Callable[[int], int]:
    """Tuple number → owning shard index within one relation.

    *prefix* is ``agent.system.database.relation``, the dotted OID
    prefix a §3 transformation gives every tuple of the relation; the
    returned function is the whole ownership formula.  The prefix is
    digested once here (``hash()`` is salted per interpreter, so a CRC
    keeps owners stable across processes) and the number mixed in per
    call.
    """
    if shards <= 1:
        return lambda number: 0
    digest = _relation_digest(prefix)
    # Knuth multiplicative mixing keeps consecutive numbers uniform
    return lambda number: (digest ^ ((number * 0x9E3779B1) & 0xFFFFFFFF)) % shards


def shard_of_oid(oid: Any, shards: int) -> int:
    """The shard index owning *oid* among *shards*.

    A §3 OID ``agent.system.db.relation.n`` is owned by its tuple
    number's shard within the relation (:func:`_number_owner`); one
    ``rpartition`` splits it into the relation prefix and the number.
    Skolem tokens and other non-OID identities fall back to a CRC of
    their string form — every identity is owned by exactly one shard
    either way.
    """
    if shards <= 1:
        return 0
    if not isinstance(oid, OID):
        return zlib.crc32(str(oid).encode("utf-8")) % shards
    prefix, _, number = oid.rpartition(SEPARATOR)
    return _number_owner(prefix, shards)(int(number))


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One shard's coordinate: slot *index* of *of*.

    Carried inside :class:`~repro.runtime.transport.ScanRequest` so any
    transport can decide ownership (:meth:`owns`) from the request
    alone; hashable, so sharded requests key caches and retry
    scripts like any other request.
    """

    index: int
    of: int

    def __post_init__(self) -> None:
        if self.of < 1:
            raise RuntimeFederationError(f"shard count must be >= 1, got {self.of}")
        if not 0 <= self.index < self.of:
            raise RuntimeFederationError(
                f"shard index {self.index} outside [0, {self.of})"
            )

    @property
    def suffix(self) -> str:
        """The endpoint suffix: ``#index/of``."""
        return f"#{self.index}/{self.of}"

    def owns(self, oid: Any) -> bool:
        """Does this shard own *oid*?"""
        return shard_of_oid(oid, self.of) == self.index

    def number_predicate(
        self, agent: Any, system: Any, database: Any, relation: Any
    ) -> Callable[[int], bool]:
        """Does this shard own tuple *n* of one relation, i.e. the OID
        ``agent.system.database.relation.n``?

        Build it once per scan: a source tests each row's number before
        the §3 transformation, so rows another shard owns cost nothing.
        """
        return self._prefix_predicate(f"{agent}.{system}.{database}.{relation}")

    def _prefix_predicate(self, prefix: str) -> Callable[[int], bool]:
        owner = _number_owner(prefix, self.of)
        index = self.index
        return lambda number: owner(number) == index

    def filter_instances(self, instances: Iterable[Any]) -> List[Any]:
        """The sub-extent this shard serves (instances carry ``.oid``).

        Sources decide ownership before the transformation
        (:meth:`number_predicate`); this is the same test over
        instances already built — an in-memory object database's
        extents — with one predicate per relation, keyed by the OID's
        dotted prefix, so each OID is parsed by one ``rpartition``.
        """
        if self.of <= 1:
            return list(instances)
        predicates: Dict[str, Callable[[int], bool]] = {}
        owned: List[Any] = []
        for instance in instances:
            oid = instance.oid
            if not isinstance(oid, OID):
                if self.owns(oid):
                    owned.append(instance)
                continue
            prefix, _, number = oid.rpartition(SEPARATOR)
            predicate = predicates.get(prefix)
            if predicate is None:
                predicate = predicates[prefix] = self._prefix_predicate(prefix)
            if predicate(int(number)):
                owned.append(instance)
        return owned


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """How one schema's extents split across *shards* agent endpoints."""

    shards: int
    #: the OID partitioning, named by callers such as
    #: ``ShardPlan(4, "hash")``; hash is the only one, any other raises
    kind: str = "hash"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise RuntimeFederationError(
                f"a shard plan needs >= 1 shards, got {self.shards}"
            )
        if self.kind != "hash":
            raise RuntimeFederationError(
                f"unknown shard plan kind {self.kind!r}; only 'hash' partitions OIDs"
            )

    @classmethod
    def coerce(cls, value: "ShardPlan | int | None") -> Optional["ShardPlan"]:
        """Accept a plan, a bare shard count, or None (sharding off)."""
        if value is None or isinstance(value, cls):
            return value
        return cls(int(value))

    def spec(self, index: int) -> ShardSpec:
        return ShardSpec(index, self.shards)

    def specs(self) -> Tuple[ShardSpec, ...]:
        return tuple(self.spec(index) for index in range(self.shards))

    def shard_of(self, oid: Any) -> int:
        return shard_of_oid(oid, self.shards)

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


def merge_shard_values(op: str, slices: Sequence[Any]) -> List[Any]:
    """Fold per-shard scan results back into one logical result.

    Extent slices concatenate in the given (shard) order with OID-level
    dedup — the first occurrence wins, so a shard that answered twice
    (retry races) can never duplicate a fact.  An instance without an
    ``.oid`` cannot be keyed and raises
    :class:`~repro.errors.ShardMergeError` — hashing the object itself
    would silently collapse distinct-but-equal facts.

    Both modes hand this fold the same instance lists, and warm slices
    come from the cache.
    """
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
