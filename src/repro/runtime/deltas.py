"""Delta feeds: component writes patch cached extents instead of nuking them.

Until now every component write invalidated by *version mismatch*: the
extent cache compared the source's current version against the version
an entry was filled at, and any difference meant a full rescan of that
granule — correct, but the worst possible behaviour under mixed
read/write traffic, where a single-row insert threw away (and re-lifted)
hundred-thousand-row extents.  This module is the incremental path:

* a source adapter that observes its own writes appends a
  :class:`SourceDelta` (the per-relation :class:`DeltaRecord`\\ s of one
  version step) to its bounded :class:`DeltaLog`;
* the transport forwards :meth:`~DeltaLog.changes_since` questions to
  the agent and wraps the answer in a :class:`DeltaReply` — ``None``
  from the transport means *this store keeps no feed at all* (plain
  in-memory databases), while ``DeltaReply(chain=None)`` means *a feed
  exists but cannot serve this span* (a gap: records evicted from the
  ring, or a write the adapter did not observe);
* :meth:`ExtentCache.apply_deltas
  <repro.runtime.cache.ExtentCache.apply_deltas>` replays a contiguous
  chain onto every stale granule of the ``(agent, schema)`` pair —
  patching extent lists by OID, honouring shard ownership — and
  **falls back to targeted per-granule eviction, never a full
  generation bump**, for anything un-patchable.

Records carry *mapped* instances: the adapter runs the §3 pipeline
(type coercion, per-attribute data mappings, FK resolution) on the
written row before logging it, so the cache patches global O-terms and
never sees raw component values.  The ``"rescan"`` op is the adapter
saying "this relation's extent changed in a way I cannot express as row
records" — e.g. positional OIDs shifted after a physical delete, or a
write to an FK target changed how *other* relations' references
resolve — and always routes to the targeted-eviction fallback.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: operations a delta record can describe.  ``rescan`` is the explicit
#: un-patchable marker: the emitting adapter knows the relation changed
#: but cannot express the change as row records.
DELTA_OPS = ("insert", "delete", "update", "rescan")

#: how many version steps a :class:`DeltaLog` retains before the oldest
#: fall off the ring (readers further behind hit the gap fallback)
DEFAULT_LOG_CAPACITY = 256


class DeltaUnpatchable(Exception):
    """A chain cannot be replayed onto one cache entry; evict instead."""


@dataclasses.dataclass(frozen=True)
class DeltaRecord:
    """One row-level change, already lifted through the §3 pipeline.

    *instance* is the mapped global O-term after the write (``None`` for
    deletes and rescan markers); *oid* identifies the affected object
    (``None`` for rescan markers, which address a whole relation).
    """

    op: str
    relation: str
    oid: Any = None
    instance: Any = None

    def __post_init__(self) -> None:
        if self.op not in DELTA_OPS:
            raise ValueError(
                f"unknown delta op {self.op!r}; choose from {DELTA_OPS}"
            )


@dataclasses.dataclass(frozen=True)
class SourceDelta:
    """The records of one version step: *base_version* → *new_version*."""

    base_version: int
    new_version: int
    records: Tuple[DeltaRecord, ...] = ()


@dataclasses.dataclass(frozen=True)
class DeltaReply:
    """An agent's answer to ``changes_since``: the chain, or no chain.

    ``chain=None`` is the *gap* signal — a feed exists but cannot cover
    the requested span, so the cache must fall back to targeted
    eviction.  An **absent** reply (the transport returning ``None``)
    means the store keeps no feed at all; the cache then leaves entries
    to the ordinary lazy version-mismatch eviction and counts nothing.
    """

    chain: Optional[Tuple[SourceDelta, ...]]


class DeltaLog:
    """A bounded ring of :class:`SourceDelta`\\ s with contiguous replay.

    :meth:`changes_since` returns the suffix of deltas that walks a
    reader from *version* to the log's head — or ``None`` when no such
    contiguous chain exists (the reader is too far behind, the versions
    do not link up, or duplicated/out-of-order entries broke the chain).
    Callers treat ``None`` as the gap signal and fall back; they never
    guess.
    """

    def __init__(self, capacity: int = DEFAULT_LOG_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("delta log capacity must be positive")
        self._capacity = capacity
        self._deltas: List[SourceDelta] = []
        # a capacity eviction that lands mid-walk shifts every index the
        # cursor has already verified, so an unverified broken link can
        # end up inside the returned "contiguous" suffix; readers walk a
        # snapshot taken under this lock instead of the live list
        self._lock = threading.Lock()

    def record(self, delta: SourceDelta) -> None:
        """Append one version step, evicting the oldest past capacity."""
        with self._lock:
            self._deltas.append(delta)
            if len(self._deltas) > self._capacity:
                del self._deltas[: len(self._deltas) - self._capacity]

    def __len__(self) -> int:
        with self._lock:
            return len(self._deltas)

    @property
    def head_version(self) -> Optional[int]:
        """The newest version the log can replay to (None when empty)."""
        with self._lock:
            return self._deltas[-1].new_version if self._deltas else None

    def changes_since(self, version: int) -> Optional[Tuple[SourceDelta, ...]]:
        """The contiguous chain from *version* to the head, or ``None``.

        A reader already at the head gets the empty chain.  The walk
        runs backwards from the head so that if a version value ever
        recurs (content fingerprints may revisit an old value), the
        *latest* occurrence wins — only suffixes that actually reach the
        head are valid replay material.
        """
        with self._lock:
            deltas = tuple(self._deltas)
        if deltas and version == deltas[-1].new_version:
            return ()
        for start in range(len(deltas) - 1, -1, -1):
            if (
                start + 1 < len(deltas)
                and deltas[start].new_version != deltas[start + 1].base_version
            ):
                # the chain is broken here; nothing earlier can reach
                # the head, so no older suffix is servable
                return None
            if deltas[start].base_version == version:
                return tuple(deltas[start:])
        return None


def chain_is_contiguous(
    chain: Sequence[SourceDelta], since: int, target_version: int
) -> bool:
    """Does *chain* walk gaplessly from *since* to *target_version*?

    The cache's guard against feeds (or transports) that drop,
    duplicate or reorder entries: every link must extend the previous
    one exactly, and the walk must end at the version the caller just
    observed — anything else is treated as a gap and takes the
    targeted-eviction fallback rather than risking a stale patch.
    """
    cursor = since
    for delta in chain:
        if delta.base_version != cursor:
            return False
        cursor = delta.new_version
    return cursor == target_version


@dataclasses.dataclass
class DeltaOutcome:
    """What one :meth:`ExtentCache.apply_deltas` sync accomplished."""

    #: feed entries (version steps) replayed, counted once per distinct
    #: chain that patched at least one cache entry
    deltas_applied: int = 0
    #: cache entries brought to the target version in place
    granules_patched: int = 0
    #: ``(granule description, reason)`` for every entry evicted via
    #: the targeted fallback — the exact account the stats owe callers
    fallbacks: List[Tuple[str, str]] = dataclasses.field(default_factory=list)
    #: the store keeps no feed; nothing was patched or evicted
    feed_missing: bool = False


def _owned(oid: Any, shard_coord: Optional[Tuple[Any, ...]]) -> bool:
    """Does the granule's shard coordinate own *oid* (True unsharded)?"""
    if shard_coord is None:
        return True
    from .sharding import shard_of_oid  # lazy: sharding imports transport

    index, of = shard_coord
    return shard_of_oid(oid, of) == index


class ExtentPatch(NamedTuple):
    """What replaying a chain onto an extent list touched."""

    #: every instance the replay deleted or replaced, in replay order
    displaced: List[Any]
    #: the instances the touched OIDs hold after the replay
    final: List[Any]


def patch_extent(
    value: List[Any],
    records: Sequence[DeltaRecord],
    shard_coord: Optional[Tuple[Any, ...]] = None,
) -> ExtentPatch:
    """Replay *records* onto an extent list in place (storage order),
    and report what the replay touched (:class:`ExtentPatch`).

    Inserts land at the tail — new rows carry the highest tuple numbers,
    which is exactly where a rescan would put them — deletes splice out,
    and updates replace in position, so a patched list stays ordered the
    way the adapter's scan orders it.  Raises :class:`DeltaUnpatchable`
    when the list cannot absorb the chain; the caller evicts that entry
    (and only that entry).
    """
    displaced: List[Any] = []
    final: Dict[Any, Any] = {}
    for record in records:
        if record.op == "rescan":
            raise DeltaUnpatchable("relation marked for rescan")
        if record.oid is None:
            raise DeltaUnpatchable(f"{record.op} record without an OID")
        position = next(
            (i for i, instance in enumerate(value) if instance.oid == record.oid),
            None,
        )
        owned = _owned(record.oid, shard_coord)
        if record.op == "delete" or not owned:
            # an update cannot migrate an OID across shards (ownership is
            # a pure function of the OID), but stay defensive
            if position is not None:
                displaced.append(value.pop(position))
            final.pop(record.oid, None)
            continue
        if record.instance is None:
            raise DeltaUnpatchable(f"{record.op} record without an instance")
        if position is None:
            value.append(record.instance)
        else:
            displaced.append(value[position])
            value[position] = record.instance
        final[record.oid] = record.instance
    return ExtentPatch(displaced, list(final.values()))


def describe_granule(key: Tuple[Any, ...], op: str) -> str:
    """A granule name in :meth:`ScanRequest.describe` vocabulary —
    ``op(agent#index/of:schema.class)`` — so fallback stats read like
    every other per-granule account."""
    endpoint = str(key[0])
    if len(key) > 3:
        index, of = key[3]
        endpoint = f"{endpoint}#{index}/{of}"
    return f"{op}({endpoint}:{key[1]}.{key[2]})"


#: signature the cache expects for the per-sync chain fetcher
ChainFetcher = Callable[[int], Optional[DeltaReply]]
