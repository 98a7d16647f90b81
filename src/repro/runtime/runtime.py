"""The federation runtime facade.

:class:`FederationRuntime` is the one object the FSM query layer talks
to: it owns a transport, the concurrent executor (retries, timeouts,
circuit breakers), the extent cache and the metrics collector, and
exposes the scan API the evaluation paths need —

* :meth:`direct_extent` / :meth:`extent` for single concept-extension
  scans (the Appendix B :class:`~repro.federation.evaluation.AgentSource`
  hot path);
* :meth:`scan_extents` for the fact-lifting fan-out: all component
  extents a global query needs, fetched concurrently;
* :meth:`lift_slice` to reuse the facts lifted from a cached extent
  granule for as long as that granule's entry is served (a delta patch
  of the entry patches them too);
* :meth:`invalidate` / :meth:`bump_generation` for cache control;
* :meth:`stats` for the observable autonomy / performance counters.

Two execution modes share this facade and one failure model — the
attempt loop of :mod:`~repro.runtime.executor`, stepped by two drivers.
``mode="threaded"`` (default) drives it on a thread pool;
``mode="async"`` drives it as coroutines on one event loop via
:class:`~repro.runtime.async_executor.AsyncFederationExecutor`, so
thousands of slow agents cost timers instead of threads.  Both modes
feed the same :class:`~repro.runtime.metrics.RuntimeMetrics` and
:class:`~repro.runtime.cache.ExtentCache` with the same values under
the same keys, so ``--stats`` output and cache behaviour are identical
across modes.

Failure policy: ``PARTIAL`` serves what survived (missing extents come
back empty) and records a warning per failure; ``ERROR`` raises
:class:`~repro.errors.PartialResultError`.

*cache_path* puts a
:class:`~repro.runtime.persistence.PersistentExtentStore` under the
extent cache: granules spill to the sqlite file on fill and are
restored on construction (counted in ``cache_restores``, timed under
the ``persistence`` phase), so a federation restarted with the same
path answers warm queries without one agent scan — while component
writes and generation bumps invalidate restored entries exactly as
they do live ones.

A :class:`~repro.runtime.sharding.ShardPlan` (or a bare shard count)
turns every scan into a scatter/merge: each logical request fans out as
one request per shard, per-shard results are cached on their own
granules, and the merge dedups by OID.  Partial shard failure follows
the same policy split — ``ERROR`` refuses, ``PARTIAL`` serves the
merged slice set and reports exactly the missing shard endpoints in
:attr:`RuntimeStats.missing_shards <repro.runtime.metrics.RuntimeStats>`.

With *plan* enabled (the default), the fan-out paths coalesce: every
granule bound for one endpoint rides a single batched round-trip, and
the results are re-keyed per granule before they reach the cache — so
cache keys, warm behaviour and the ``agent_scans`` histogram are
byte-identical to unplanned runs while ``round_trips`` drops.  The FSM
additionally prunes the pair list through the query planner
(:mod:`repro.runtime.planner`) and, when the cache is off, hands
:meth:`scan_extents` the plan's per-origin selections: each narrowed
scan asks its component store for only the instances that can match
the query's equalities.  A narrowed result is never cached — it is not
the extent a cached granule promises.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import PartialResultError, RuntimeFederationError
from ..federation.agent import FSMAgent
from ..model.instances import ObjectInstance
from ..model.store import Selection
from .async_executor import AsyncFederationExecutor, EventLoopThread
from .async_transport import AsyncAgentTransport, AsyncTransportAdapter
from .breaker import CircuitBreaker
from .cache import MISS, EntryVersion, ExtentCache, SliceLifter
from .executor import FederationExecutor, ScanExecutor, ScanOutcome
from .metrics import RuntimeMetrics, RuntimeStats
from .persistence import PersistentExtentStore
from .policy import FailurePolicy, RuntimePolicy
from .sharding import ShardPlan, ShardedOutcome, merge_shard_values
from .transport import AgentTransport, InProcessTransport, ScanRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..logic.engine import FactStore

#: accepted FederationRuntime execution modes
MODES = ("threaded", "async")


class FederationRuntime:
    """Concurrent, cached, observable access to a federation's agents."""

    def __init__(
        self,
        agents: Optional[Mapping[str, FSMAgent]] = None,
        transport: Optional["AgentTransport | AsyncAgentTransport"] = None,
        policy: Optional[RuntimePolicy] = None,
        metrics: Optional[RuntimeMetrics] = None,
        cache: Optional[ExtentCache] = None,
        breaker: Optional[CircuitBreaker] = None,
        mode: str = "threaded",
        shard_plan: "ShardPlan | int | None" = None,
        cache_path: "str | os.PathLike[str] | None" = None,
        loop: Optional[EventLoopThread] = None,
        plan: bool = True,
        deltas: bool = True,
    ) -> None:
        """The runtime options, declared here once for every front end
        (``FSM.use_runtime``, ``FederationSession.enable_runtime`` and
        the service's tenants forward them unchanged).

        *mode* picks the engine: ``"threaded"`` (thread-pool fan-out) or
        ``"async"`` (one event loop multiplexes every in-flight scan).
        *shard_plan* — a :class:`~repro.runtime.sharding.ShardPlan` or a
        bare count — scatters every extent scan across N shard endpoints
        per agent.
        *cache_path* spills the extent cache to a sqlite file and
        restores it here, so a restarted federation answers warm.
        *loop* (async mode) is a shared
        :class:`~repro.runtime.async_executor.EventLoopThread` many
        runtimes multiplex their scans on; its owner closes it.  *plan*
        runs the query planner (pruning, per-endpoint coalescing, and
        selection pushdown when the cache is off); ``plan=False``
        reproduces one round-trip per granule.  *deltas* patches stale
        cached extents from component delta feeds; ``deltas=False``
        rescans on any write.
        """
        if mode not in MODES:
            raise RuntimeFederationError(
                f"unknown runtime mode {mode!r}; choose from {MODES}"
            )
        self.mode = mode
        if transport is None:
            if agents is None:
                raise PartialResultError(
                    "FederationRuntime needs agents or an explicit transport"
                )
            transport = InProcessTransport(agents)
        if mode == "async" and isinstance(transport, AgentTransport):
            transport = AsyncTransportAdapter(transport)
        if mode == "threaded" and isinstance(transport, AsyncAgentTransport):
            raise RuntimeFederationError(
                "async transports need mode='async' (threaded executors "
                "cannot await coroutines)"
            )
        self.transport = transport
        self.policy = policy or RuntimePolicy()
        self.metrics = metrics or RuntimeMetrics()
        if cache is None and cache_path is not None:
            # the persistent tier: granules spill to disk on put and are
            # reloaded here, so a restarted federation warms up scan-free
            cache = ExtentCache(
                store=PersistentExtentStore(cache_path), metrics=self.metrics
            )
            self.metrics.incr("cache_restores", cache.restored)
        # explicit None test: an empty ExtentCache has len() == 0 and is
        # falsy, so `cache or ExtentCache()` would drop a persistent one
        self.cache = cache if cache is not None else ExtentCache(metrics=self.metrics)
        self.executor: ScanExecutor
        if mode == "async":
            assert isinstance(transport, AsyncAgentTransport)
            # *loop* lets many runtimes (one per service tenant) multiplex
            # their scans on one shared event-loop thread; the loop's
            # owner closes it, not this runtime
            self.executor = AsyncFederationExecutor(
                transport, self.policy, self.metrics, breaker, runner=loop
            )
        else:
            assert isinstance(transport, AgentTransport)
            self.executor = FederationExecutor(
                transport, self.policy, self.metrics, breaker
            )
        self.breaker = self.executor.breaker
        #: scatter/merge plan; None means classic one-scan-per-extent
        self.shard_plan: Optional[ShardPlan] = ShardPlan.coerce(shard_plan)
        #: query planning: coalesce fan-outs into batched round-trips and
        #: let the FSM prune/push down; off reproduces pre-planner traffic
        self.plan_enabled = bool(plan)
        #: incremental invalidation: replay component delta feeds onto
        #: stale cache granules before each freshness check; off
        #: reproduces the full-rescan-on-any-write baseline
        self.deltas_enabled = bool(deltas)
        #: the most recent QueryPlan the FSM ran through this runtime
        self.last_plan: Optional[Any] = None
        #: warnings from the most recent degraded operation
        self.last_warnings: List[str] = []
        self._closed = False

    # ------------------------------------------------------------------
    # request construction
    # ------------------------------------------------------------------
    def request(
        self,
        schema_name: str,
        class_name: str,
        op: str = "direct_extent",
        where: Selection = (),
    ) -> ScanRequest:
        agent = self.transport.agent_for_schema(schema_name)
        return ScanRequest(agent, schema_name, class_name, op, where=where)

    # ------------------------------------------------------------------
    # single scans
    # ------------------------------------------------------------------
    def direct_extent(
        self, schema_name: str, class_name: str
    ) -> List[ObjectInstance]:
        return self._fetch(self.request(schema_name, class_name, "direct_extent"))

    def extent(self, schema_name: str, class_name: str) -> List[ObjectInstance]:
        return self._fetch(self.request(schema_name, class_name, "extent"))

    def _fetch(self, request: ScanRequest) -> List[ObjectInstance]:
        """One scan through cache + executor, honouring the failure policy
        (under ``partial`` a failed scan comes back empty)."""
        self.metrics.incr("requests")
        if self.shard_plan is not None:
            extents = self._scan_extents_sharded([request], fan_out=False)
            return extents.get((request.schema, request.class_name), [])
        cached, _ = self._cache_lookup(request)
        if cached is not MISS:
            return cached
        try:
            value = self.executor.run_one(request)
        except PartialResultError:
            raise
        except Exception as error:
            if self.policy.failure_policy is FailurePolicy.ERROR:
                raise
            warning = f"{request.describe()}: {error}"
            self.last_warnings.append(warning)
            self.metrics.incr("partial_results")
            return []
        self._cache_put(request, value)
        return value

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------
    def scan_extents(
        self,
        pairs: Iterable[Tuple[str, str]],
        op: str = "direct_extent",
        selections: Optional[Mapping[Tuple[str, str], Selection]] = None,
        versions: Optional[Dict[Tuple[str, str], EntryVersion]] = None,
    ) -> Dict[Tuple[str, str], List[ObjectInstance]]:
        """Concurrently fetch the extents of many ``(schema, class)`` pairs.

        Cached granules are served without touching their agents; only
        the misses fan out — with planning enabled, coalesced into one
        batched round-trip per endpoint (results are still cached per
        granule under their usual keys, so warm behaviour is unchanged).
        Failed scans are absent from the mapping under the ``PARTIAL``
        policy (callers treat them as empty).

        *selections* maps a pair to its planner selection in the
        component's local vocabulary.  On a runtime with the cache off,
        that pair's ``direct_extent`` scan carries it, and the value
        returned may be any sub-list of the extent that keeps every
        matching instance (counted in ``scans_narrowed``); with the
        cache on, selections are ignored and every scan is full.

        *versions*, when given, receives the cache entry version each
        returned extent was read from or stored as (unsharded, cached
        runtimes only) — the handle :meth:`lift_slice` takes.
        """
        if selections and (self.policy.cache_enabled or op != "direct_extent"):
            selections = None
        requests = [
            self.request(
                schema_name,
                class_name,
                op,
                where=selections.get((schema_name, class_name), ())
                if selections
                else (),
            )
            for schema_name, class_name in dict.fromkeys(pairs)
        ]
        self.metrics.incr("requests", len(requests))
        if selections:
            narrowed = sum(1 for request in requests if request.where)
            if narrowed:
                self.metrics.incr("scans_narrowed", narrowed)
        if self.shard_plan is not None:
            return self._scan_extents_sharded(requests)
        extents: Dict[Tuple[str, str], List[ObjectInstance]] = {}
        to_fetch: List[ScanRequest] = []
        for request in requests:
            cached, version = self._cache_lookup(request)
            if cached is MISS:
                to_fetch.append(request)
                continue
            extents[(request.schema, request.class_name)] = cached
            if versions is not None and version is not None:
                versions[(request.schema, request.class_name)] = version
        if to_fetch:
            with self.metrics.timer("fan_out"):
                if self.plan_enabled:
                    outcome = self.executor.run_coalesced(to_fetch)
                else:
                    outcome = self.executor.run(to_fetch)
            self._apply_failure_policy(outcome)
            for request, value in outcome.results.items():
                version = self._cache_put(request, value)
                extents[(request.schema, request.class_name)] = value
                if versions is not None and version is not None:
                    versions[(request.schema, request.class_name)] = version
        return extents

    def lift_slice(
        self,
        version: EntryVersion,
        context: Hashable,
        name: Hashable,
        build: Callable[[], "FactStore"],
        lift: SliceLifter,
    ) -> "FactStore":
        """The facts lifted from one cached extent granule.

        Serves the slice kept on the entry *version* names when one was
        lifted under *context* (counted in ``lift_slices_reused``);
        otherwise calls *build* — outside the cache lock, over the value
        read with *version* — and keeps the result on the entry if it
        is still served at that version (``lift_slices_built``).  *lift*
        lifts any list of the extent's instances the way *build* lifts
        all of them; the entry keeps it beside the slice, and a delta
        patch uses it to publish a patched copy of the slice
        (``lift_slices_patched``) instead of dropping it.  The returned
        store is shared: callers only read it or layer over it.
        """
        store = self.cache.slice(version, context, name)
        if store is not None:
            self.metrics.incr("lift_slices_reused")
            return store
        store = build()
        self.cache.attach_slice(version, context, name, store, lift)
        self.metrics.incr("lift_slices_built")
        return store

    def _scan_extents_sharded(
        self, requests: Sequence[ScanRequest], fan_out: bool = True
    ) -> Dict[Tuple[str, str], List[ObjectInstance]]:
        """The sharded fan-out: scatter every logical miss, merge slices.

        Warm shard granules are merged locally; a logical request with
        any cold shard goes through the executor's scatter (cold shards
        only — the warm slices ride along as *preloaded*).  Under the
        ``PARTIAL`` policy a logical request missing some shards still
        appears in the mapping, carrying the slices that survived.

        Single scans pass ``fan_out=False``: their shards are neither
        coalesced (a lost shard is a missing shard, never a lost
        granule) nor timed as the ``fan_out`` phase.
        """
        plan = self.shard_plan
        assert plan is not None
        extents: Dict[Tuple[str, str], List[ObjectInstance]] = {}
        preloaded: Dict[ScanRequest, Any] = {}
        to_fetch: List[ScanRequest] = []
        for request in requests:
            shard_requests = plan.split(request)
            warm: List[Any] = []
            for shard_request in shard_requests:
                cached, _ = self._cache_lookup(shard_request)
                if cached is not MISS:
                    preloaded[shard_request] = cached
                    warm.append(cached)
            if len(warm) == len(shard_requests):
                extents[(request.schema, request.class_name)] = merge_shard_values(
                    request.op, warm
                )
            else:
                to_fetch.append(request)
        if to_fetch:
            self.metrics.incr("sharded_scans", len(to_fetch))
            with self.metrics.timer("fan_out") if fan_out else nullcontext():
                outcome = self.executor.run_sharded(
                    to_fetch, plan, preloaded, coalesce=fan_out and self.plan_enabled
                )
            for shard_request, value in outcome.shard_results.items():
                if shard_request not in preloaded:
                    self._cache_put(shard_request, value)
            self._apply_failure_policy(outcome)
            for request, value in outcome.results.items():
                extents[(request.schema, request.class_name)] = value
        return extents

    def _apply_failure_policy(self, outcome: "ScanOutcome | ShardedOutcome") -> None:
        """``ERROR`` refuses a partial outcome; ``PARTIAL`` keeps its
        warnings and counts one partial result per failed scan — per
        partially merged logical request, for a sharded outcome."""
        if not outcome.partial:
            return
        if self.policy.failure_policy is FailurePolicy.ERROR:
            raise PartialResultError(
                "; ".join(outcome.warnings()), failures=outcome.failures
            )
        self.last_warnings.extend(outcome.warnings())
        lost = outcome.missing if isinstance(outcome, ShardedOutcome) else outcome.failures
        self.metrics.incr("partial_results", len(lost))

    # ------------------------------------------------------------------
    # cache plumbing
    # ------------------------------------------------------------------
    def _cache_lookup(self, request: ScanRequest) -> Tuple[Any, Optional[EntryVersion]]:
        if not self.policy.cache_enabled:
            return MISS, None
        current = self.transport.generation(request)
        if self.deltas_enabled and current is not None:
            self._sync_deltas(request, current)
        value, version = self.cache.lookup(request, current)
        self.metrics.incr("cache_hits" if value is not MISS else "cache_misses")
        return value, version

    def _sync_deltas(self, request: ScanRequest, current: int) -> None:
        """Replay the component's delta feed onto stale cached granules
        of this request's ``(agent, schema)`` before the freshness
        check, so a single-row write patches instead of forcing rescans.
        Un-patchable entries are individually evicted and accounted in
        ``fallback_invalidations`` — never a full generation bump."""
        outcome = self.cache.apply_deltas(
            request.agent,
            request.schema,
            current,
            lambda since: self.transport.changes(request, since),
        )
        if outcome.deltas_applied:
            self.metrics.incr("deltas_applied", outcome.deltas_applied)
        if outcome.granules_patched:
            self.metrics.incr("granules_patched", outcome.granules_patched)
        for description, _reason in outcome.fallbacks:
            self.metrics.record("fallback_invalidations", description)

    def _cache_put(self, request: ScanRequest, value: Any) -> Optional[EntryVersion]:
        # a narrowed value is not the extent a granule promises
        if not self.policy.cache_enabled or request.where:
            return None
        return self.cache.put(request, value, self.transport.generation(request))

    def invalidate(
        self,
        agent: Optional[str] = None,
        schema: Optional[str] = None,
        class_name: Optional[str] = None,
        shard: Optional[Tuple[Any, ...]] = None,
    ) -> int:
        """Explicitly drop cached extents (see :meth:`ExtentCache.invalidate`)."""
        return self.cache.invalidate(agent, schema, class_name, shard)

    def bump_generation(self) -> int:
        """Invalidate the whole cache via its generation counter."""
        return self.cache.bump_generation()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> RuntimeStats:
        """A point-in-time snapshot; subtract two for per-query deltas."""
        return self.metrics.snapshot()

    def timer(self, phase: str):
        return self.metrics.timer(phase)

    def drain_warnings(self) -> List[str]:
        """Return and clear the accumulated degradation warnings."""
        warnings, self.last_warnings = self.last_warnings, []
        return warnings

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Release executor resources (the async mode's loop thread) and
        the cache's persistent store, when one is attached.

        Idempotent: every exit path (success, error, signal handler) may
        call it, and double closes are no-ops — the CLI and the service
        shutdown sequence both rely on that.
        """
        if self._closed:
            return
        self._closed = True
        closer = getattr(self.executor, "close", None)
        if closer is not None:
            closer()
        self.cache.close()
