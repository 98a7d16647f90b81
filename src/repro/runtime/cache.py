"""The extent cache: repeated global queries stop re-scanning locals.

Every :meth:`FSM.query <repro.federation.fsm.FSM.query>` builds a fresh
engine, and the seed re-lifted every component extent each time — N
agent scans per query forever.  :class:`ExtentCache` memoizes scan
results keyed by the ``(agent, schema, class)`` granule (each granule
holding one entry per scan op, ``direct_extent`` or ``extent``; every
value is a list of instances), with two invalidation paths:

* **explicit** — :meth:`invalidate` by agent / schema / class, or
  :meth:`clear`;  sharded scans key a *fourth* coordinate —
  ``(agent, schema, class, (index, of))`` — and the
  coordinate match deliberately ignores it, so
  ``invalidate(class_name="person")`` drops every shard granule of that
  class, never just the unsharded one;
* **generation-based** — entries record the component database's
  ``version`` at fill time (via the transport) plus the cache's own
  generation counter; a database write or a :meth:`bump_generation`
  makes the stale entry miss and evicts it lazily.

With a :class:`~repro.runtime.persistence.PersistentExtentStore`
attached, granules additionally spill to disk on :meth:`put` and are
reloaded on construction — a restarted federation warms up without an
agent scan — while every invalidation path above (explicit drops, stale
evictions, generation bumps) writes through, so the disk tier can never
resurrect an entry the in-memory tier already condemned.  Entries whose
component version was unobservable at fill time stay memory-only: after
a restart their freshness could not be checked.

An entry may also carry **lifted fact slices**: the read-only
:class:`~repro.logic.engine.FactStore` the federation lifted from the
entry's value (:func:`~repro.federation.evaluation.lift_facts`), so a
warm query does not lift the same granule again.  A caller reads the
value together with an :class:`EntryVersion`; a slice is served only
for that exact entry version, and attached only while the entry is
still the one served at that version.

Beside each slice the entry keeps its :data:`SliceLifter`.  When a
delta chain patches the entry's extent, each slice is republished as a
copy-on-write patched copy (:meth:`FactStore.patched
<repro.logic.engine.FactStore.patched>`): the facts of the instances
the replay displaced go, those of the touched OIDs' final instances
come in.  Every lifted fact carries its instance's OID first, so this
equals a fresh lift of the patched extent; the old slice is never
written, so readers still holding it are unaffected.  With *metrics*
attached each patched slice counts in ``lift_slices_patched``.

The slices are dropped instead — one ``lift_slices_dropped`` per slice
map — on every other path: a replacing :meth:`put`, a stale lookup,
a fallback eviction (sequence gap, rescan marker, unpatchable chain),
a patch of a slice attached without a lifter, :meth:`invalidate`,
:meth:`clear`, :meth:`bump_generation`, and a lift under a new mapping
or schema context.  Slices live in memory only and never reach the persistent
tier.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ContextManager,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .deltas import (
    ChainFetcher,
    DeltaOutcome,
    DeltaUnpatchable,
    ExtentPatch,
    chain_is_contiguous,
    describe_granule,
    patch_extent,
)
from .transport import ScanRequest

if TYPE_CHECKING:
    from ..logic.engine import FactStore
    from .metrics import RuntimeMetrics
    from .persistence import PersistentExtentStore

_MISS = object()

#: lifts a list of one extent's instances into their share of one slice
SliceLifter = Callable[[Sequence[Any]], "FactStore"]
#: slice name -> (the slice, its lifter or None)
_Slices = Dict[Hashable, Tuple["FactStore", Optional[SliceLifter]]]


class _Entry:
    __slots__ = ("value", "cache_generation", "source_generation", "slices")

    def __init__(
        self, value: Any, cache_generation: int, source_generation: Optional[int]
    ) -> None:
        self.value = value
        self.cache_generation = cache_generation
        self.source_generation = source_generation
        #: (lift context, slices) lifted from this value
        self.slices: Optional[Tuple[Hashable, _Slices]] = None


class EntryVersion(NamedTuple):
    """One cache entry as a caller read it: where it lives, and the
    component version its value had at the read."""

    key: Tuple[Any, ...]
    op: str
    entry: _Entry
    source_generation: Optional[int]


class ExtentCache:
    """Thread-safe scan cache keyed by ``(agent, schema, class)`` —
    plus an ``(index, of)`` shard coordinate for sharded
    granules — optionally backed by a persistent on-disk store."""

    def __init__(
        self,
        store: Optional["PersistentExtentStore"] = None,
        metrics: Optional["RuntimeMetrics"] = None,
    ) -> None:
        self._granules: Dict[Tuple[Any, ...], Dict[str, _Entry]] = {}
        self._generation = 0
        self._lock = threading.Lock()
        self._store = store
        self._metrics = metrics
        #: entries reloaded from the persistent store at construction
        self.restored = 0
        if store is not None:
            with self._persistence_timer():
                self._generation = store.generation()
                for key, op, value, cache_generation, source_generation in (
                    store.load()
                ):
                    self._granules.setdefault(key, {})[op] = _Entry(
                        value, cache_generation, source_generation
                    )
                    self.restored += 1

    # ------------------------------------------------------------------
    def _drop_slices(self, entry: _Entry) -> None:
        """Forget *entry*'s lifted slices, counting a dropped slice map;
        the caller holds the lock."""
        if entry.slices is not None:
            entry.slices = None
            if self._metrics is not None:
                self._metrics.incr("lift_slices_dropped")

    def _patch_slices(self, entry: _Entry, patch: ExtentPatch) -> None:
        """Republish *entry*'s slices as patched copies after a replay
        that changed its value as *patch* reports.  A slice map that
        cannot be patched is dropped.  The caller holds the lock."""
        if entry.slices is None:
            return
        context, slices = entry.slices
        try:
            patched: _Slices = {
                name: (store.patched(lift(patch.displaced), lift(patch.final)), lift)
                for name, (store, lift) in slices.items()
                if lift is not None
            }
        except BaseException:
            # the old slices no longer match the patched value
            self._drop_slices(entry)
            raise
        if len(patched) < len(slices):  # a slice without a lifter
            self._drop_slices(entry)
            return
        entry.slices = (context, patched)
        if self._metrics is not None:
            self._metrics.incr("lift_slices_patched", len(slices))

    def _persistence_timer(self) -> ContextManager[None]:
        """Time store traffic under the metrics' ``persistence`` phase."""
        if self._metrics is None:
            return nullcontext()
        return self._metrics.timer("persistence")

    @property
    def persistent(self) -> bool:
        return self._store is not None

    @property
    def generation(self) -> int:
        return self._generation

    def bump_generation(self) -> int:
        """Invalidate everything currently cached (lazily evicted; the
        lifted slices go at once)."""
        with self._lock:
            self._generation += 1
            for granule in self._granules.values():
                for entry in granule.values():
                    self._drop_slices(entry)
            if self._store is not None:
                with self._persistence_timer():
                    self._store.set_generation(self._generation)
            return self._generation

    def get(
        self, request: ScanRequest, source_generation: Optional[int] = None
    ) -> Any:
        """The cached value for *request*, or :data:`MISS`.

        A hit requires the entry to be from the current cache generation
        and, when *source_generation* is observable, to match the
        component database's version it was filled at.
        """
        return self.lookup(request, source_generation)[0]

    def lookup(
        self, request: ScanRequest, source_generation: Optional[int] = None
    ) -> Tuple[Any, Optional[EntryVersion]]:
        """:meth:`get`, plus the version of the entry that answered
        (None on a miss) — the handle :meth:`slice` and
        :meth:`attach_slice` take."""
        key = request.cache_key
        op = request.op
        with self._lock:
            granule = self._granules.get(key)
            entry = granule.get(op) if granule else None
            if entry is None:
                return _MISS, None
            stale = entry.cache_generation != self._generation or (
                source_generation is not None
                and entry.source_generation != source_generation
            )
            if stale:
                assert granule is not None
                self._evict(key, granule, op)
                return _MISS, None
            return list(entry.value), EntryVersion(
                key, op, entry, entry.source_generation
            )

    def put(
        self,
        request: ScanRequest,
        value: List[Any],
        source_generation: Optional[int] = None,
    ) -> EntryVersion:
        """Fill *request*'s entry; returns the new entry's version."""
        key = request.cache_key
        op = request.op
        with self._lock:
            granule = self._granules.setdefault(key, {})
            replaced = granule.get(op)
            if replaced is not None:
                self._drop_slices(replaced)
            entry = _Entry(list(value), self._generation, source_generation)
            granule[op] = entry
            if self._store is not None and source_generation is not None:
                with self._persistence_timer():
                    self._store.put(
                        key, op, value, self._generation, source_generation
                    )
            return EntryVersion(key, op, entry, source_generation)

    # ------------------------------------------------------------------
    # lifted fact slices
    # ------------------------------------------------------------------
    def slice(
        self, version: EntryVersion, context: Hashable, name: Hashable
    ) -> "Optional[FactStore]":
        """The slice *name* lifted under *context* from exactly the entry
        version *version* names, or None."""
        with self._lock:
            entry = version.entry
            if entry.source_generation != version.source_generation:
                return None
            if entry.slices is None or entry.slices[0] != context:
                return None
            kept = entry.slices[1].get(name)
            return kept[0] if kept is not None else None

    def attach_slice(
        self,
        version: EntryVersion,
        context: Hashable,
        name: Hashable,
        store: "FactStore",
        lift: Optional[SliceLifter] = None,
    ) -> None:
        """Keep *store*, lifted from *version*'s value, on that entry —
        only while the entry is still the one served at that version.
        Slices of another *context* are dropped.  *lift* lifts any list
        of the value's instances the way *store* was lifted; without
        it a delta patch drops the slices instead of patching them."""
        with self._lock:
            entry = version.entry
            granule = self._granules.get(version.key)
            if (
                granule is None
                or granule.get(version.op) is not entry
                or entry.cache_generation != self._generation
                or entry.source_generation != version.source_generation
            ):
                return
            if entry.slices is None or entry.slices[0] != context:
                self._drop_slices(entry)
                entry.slices = (context, {})
            entry.slices[1][name] = (store, lift)

    # ------------------------------------------------------------------
    # delta feeds (incremental invalidation)
    # ------------------------------------------------------------------
    def apply_deltas(
        self,
        agent: str,
        schema: str,
        target_version: int,
        fetch: ChainFetcher,
    ) -> DeltaOutcome:
        """Patch every stale granule of ``(agent, schema)`` toward
        *target_version* by replaying delta chains, instead of letting
        version-mismatch eviction force full rescans.

        *fetch* is called at most once per distinct stale entry version
        and answers with a :class:`~repro.runtime.deltas.DeltaReply`
        (or ``None`` when the store keeps no feed, which aborts the
        sync untouched).  Entries the chain cannot patch — a sequence
        gap, a rescan marker — are **individually evicted** (memory and
        persistent tier), never the whole cache: the promised fallback
        is targeted granule invalidation, not a generation bump.
        Patched entries are written through to the persistent store at
        the new version, so deltas survive a restart without an agent
        scan.
        """
        outcome = DeltaOutcome()
        chains: Dict[int, Any] = {}
        used: set = set()
        with self._lock:
            for key in [
                key
                for key in self._granules
                if key[0] == agent and key[1] == schema
            ]:
                granule = self._granules.get(key)
                if granule is None:
                    continue
                shard_coord = key[3] if len(key) > 3 else None
                for op in list(granule):
                    entry = granule[op]
                    if entry.cache_generation != self._generation:
                        continue  # condemned already; get() evicts lazily
                    since = entry.source_generation
                    if since is None or since == target_version:
                        continue
                    if since not in chains:
                        reply = fetch(since)
                        if reply is None:
                            outcome.feed_missing = True
                            return outcome
                        chain = reply.chain
                        if chain is not None and not chain_is_contiguous(
                            chain, since, target_version
                        ):
                            # the chain cannot certify freshness: an
                            # unlogged write slipped past the feed head,
                            # or entries were dropped, duplicated or
                            # reordered on the way here
                            chain = None
                        chains[since] = chain
                    chain = chains[since]
                    description = describe_granule(key, op)
                    if chain is None:
                        self._evict(key, granule, op)
                        outcome.fallbacks.append((description, "sequence gap"))
                        continue
                    relevant = [
                        record
                        for delta in chain
                        for record in delta.records
                        if record.relation == key[2]
                    ]
                    try:
                        patch = patch_extent(entry.value, relevant, shard_coord)
                    except DeltaUnpatchable as reason:
                        self._evict(key, granule, op)
                        outcome.fallbacks.append((description, str(reason)))
                        continue
                    entry.source_generation = target_version
                    if relevant:
                        # the value changed: so does what is lifted from it
                        self._patch_slices(entry, patch)
                    outcome.granules_patched += 1
                    if since not in used:
                        used.add(since)
                        outcome.deltas_applied += len(chain)
                    if self._store is not None:
                        with self._persistence_timer():
                            self._store.put(
                                key,
                                op,
                                entry.value,
                                self._generation,
                                target_version,
                            )
        return outcome

    def _evict(
        self, key: Tuple[Any, ...], granule: Dict[str, _Entry], op: str
    ) -> None:
        """Drop one op's entry (both tiers); the caller holds the lock."""
        entry = granule.pop(op, None)
        if entry is not None:
            self._drop_slices(entry)
        if not granule:
            # an emptied granule dict must not be stranded forever
            self._granules.pop(key, None)
        if self._store is not None:
            with self._persistence_timer():
                self._store.delete(key, op)

    # ------------------------------------------------------------------
    def invalidate(
        self,
        agent: Optional[str] = None,
        schema: Optional[str] = None,
        class_name: Optional[str] = None,
        shard: Optional[Tuple[Any, ...]] = None,
    ) -> int:
        """Drop every granule matching the given coordinates; counts drops.

        Any combination works: ``invalidate(agent="a1")`` drops one
        agent's granules, ``invalidate(schema="S1", class_name="person")``
        one class wherever hosted, ``invalidate()`` everything.  Keys are
        3-tuples for unsharded granules and 4-tuples (the extra element
        being the ``(index, of)`` shard coordinate) for sharded ones; a
        coordinate-only match covers *both* shapes, so a class-level
        invalidation can never strand a shard granule.  Pass *shard* —
        an ``(index, of)`` pair — to narrow the drop to that shard's
        granules.
        """
        probe = tuple(shard) if shard is not None else None
        with self._lock:
            doomed = [
                key
                for key in self._granules
                if (agent is None or key[0] == agent)
                and (schema is None or key[1] == schema)
                and (class_name is None or key[2] == class_name)
                and (probe is None or (len(key) > 3 and key[3] == probe))
            ]
            for key in doomed:
                for entry in self._granules.pop(key).values():
                    self._drop_slices(entry)
            if self._store is not None and doomed:
                with self._persistence_timer():
                    for key in doomed:
                        self._store.delete_granule(key)
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            for granule in self._granules.values():
                for entry in granule.values():
                    self._drop_slices(entry)
            self._granules.clear()
            if self._store is not None:
                with self._persistence_timer():
                    self._store.clear()

    def close(self) -> None:
        """Release the persistent store's connection (no-op when memory-only)."""
        if self._store is not None:
            self._store.close()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(granule) for granule in self._granules.values())


#: sentinel returned by :meth:`ExtentCache.get` on a miss
MISS = _MISS
