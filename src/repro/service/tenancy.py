"""Tenancy: one isolated federation per tenant, many tenants per loop.

A *tenant* is one complete federation — its own component databases,
integrated schema, :class:`~repro.runtime.cache.ExtentCache`, generation
state and optional persistent cache file — wrapped with the per-tenant
admission gate the service's fairness promise needs.  Tenants share
**nothing** stateful: the only common resource is the
:class:`~repro.runtime.async_executor.EventLoopThread` all async-mode
runtimes multiplex their agent scans on, which carries no per-tenant
data.  A ``bump_generation`` or component write in one tenant therefore
cannot invalidate or serve stale granules to another.

:class:`TenantConfig` describes how to build a tenant: either a named
demo federation (``genealogy`` / ``cluster``) or component schema files
plus an assertion DSL file and an optional JSON instance file, or a
``source_dir`` manifest.  It is the one federation spec: the CLI
``query`` subcommand turns its flags into a :class:`TenantConfig` and
builds through :func:`build_session` and :func:`attach_runtime` too, so
both front doors validate, build and query identically.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.session import FederationSession
from ..errors import ServiceError
from ..federation.query import FederatedQuery
from ..model.database import ObjectDatabase
from ..model.textio import parse_schema_file
from ..runtime import (
    AsyncSimulatedNetworkTransport,
    AsyncTransportAdapter,
    EventLoopThread,
    FaultProfile,
    FederationRuntime,
    InProcessTransport,
    MODES,
    RuntimePolicy,
    RuntimeStats,
    ShardPlan,
    SimulatedNetworkTransport,
)

#: demo federations `TenantConfig.demo` accepts
DEMOS = ("genealogy", "cluster")


@dataclasses.dataclass
class TenantConfig:
    """Everything needed to build one tenant's federation.

    *max_inflight* is the tenant's **fairness cap**: how many of its
    HTTP queries may execute concurrently.  A tenant flooding the
    service queues behind its own cap instead of starving its
    neighbours' share of the shared scan loop.  The runtime-level scan
    window is *scan_inflight* (the async executor's semaphore).
    """

    name: str
    #: a named demo federation; omitted with no other source given, the
    #: tenant serves ``genealogy``
    demo: Optional[str] = None
    #: component schema files (alternative to *demo*; needs *assertions*)
    schemas: Tuple[str, ...] = ()
    assertions: Optional[str] = None
    #: JSON instance file: ``{schema: {class: [attribute maps]}}``
    data: Optional[str] = None
    #: a disk-backed federation: a directory with a ``federation.json``
    #: manifest naming sqlite/CSV/JSON sources (alternative to *demo*)
    source_dir: Optional[str] = None
    #: execution engine: ``threaded`` or ``async`` (shared loop)
    mode: str = "async"
    max_inflight: int = 8
    scan_inflight: int = 64
    max_workers: int = 8
    shards: int = 0
    cache_path: Optional[str] = None
    #: simulated per-agent-call latency in milliseconds (demos, benchmarks)
    latency_ms: float = 0.0
    #: run the query planner (prune + coalesce, and selection pushdown
    #: when the cache is off) per query
    plan: bool = True
    #: patch stale cached extents from component delta feeds instead of
    #: rescanning them (``deltas=false`` restores the bump baseline)
    deltas: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ServiceError("a tenant needs a non-empty name")
        if self.mode not in MODES:
            raise ServiceError(
                f"tenant {self.name!r} needs mode in {MODES}, got {self.mode!r}"
            )
        # exactly one source: a demo, a source_dir, or schema files (whose
        # assertions and data travel with them)
        given = [
            label
            for label, value in (
                ("demo", self.demo),
                ("source_dir", self.source_dir),
                ("schema files/assertions/data",
                 self.schemas or self.assertions or self.data),
            )
            if value
        ]
        if len(given) > 1:
            raise ServiceError(
                f"tenant {self.name!r}: {' and '.join(given)} are exclusive"
            )
        if not given:
            self.demo = "genealogy"
        if self.demo is not None and self.demo not in DEMOS:
            raise ServiceError(
                f"tenant {self.name!r} needs demo in {DEMOS}, got {self.demo!r}"
            )
        if given == ["schema files/assertions/data"] and (
            len(self.schemas) < 2 or not self.assertions
        ):
            raise ServiceError(
                f"tenant {self.name!r} needs at least two schema files plus "
                "an assertion file"
            )
        if self.max_inflight < 1:
            raise ServiceError(
                f"tenant {self.name!r} max_inflight must be >= 1, "
                f"got {self.max_inflight}"
            )


def _demo_databases(config: TenantConfig) -> Tuple[str, Dict[str, ObjectDatabase]]:
    if config.demo == "genealogy":
        from ..workloads import genealogy

        _, _, text, databases = genealogy()
        return text, databases
    from ..workloads import federated_cluster

    _, text, databases = federated_cluster(schemas=4, per_class=8)
    return text, databases


def _file_databases(config: TenantConfig) -> Tuple[str, Dict[str, ObjectDatabase]]:
    rows_by_schema: Mapping[str, Mapping[str, Sequence[Mapping[str, Any]]]] = {}
    if config.data:
        with open(config.data, "r", encoding="utf-8") as handle:
            rows_by_schema = json.load(handle)
    databases: Dict[str, ObjectDatabase] = {}
    for path in config.schemas:
        schema = parse_schema_file(path)
        database = ObjectDatabase(schema, agent=f"host-{schema.name}")
        for class_name, rows in rows_by_schema.get(schema.name, {}).items():
            database.insert_many(class_name, rows)
        databases[schema.name] = database
    assert config.assertions is not None  # __post_init__ guarantees it
    with open(config.assertions, "r", encoding="utf-8") as handle:
        text = handle.read()
    return text, databases


def build_session(config: TenantConfig) -> FederationSession:
    """Build and integrate one tenant's federation from its config."""
    if config.source_dir:
        from ..sources import load_source_federation

        text, databases = load_source_federation(config.source_dir)
    elif config.schemas:
        text, databases = _file_databases(config)  # type: ignore[assignment]
    else:
        text, databases = _demo_databases(config)  # type: ignore[assignment]
    session = FederationSession()
    for schema_name, database in databases.items():
        session.add_source(database, agent_name=f"agent-{schema_name}")
    session.declare(text)
    session.integrate()
    return session


def attach_runtime(
    session: FederationSession,
    config: TenantConfig,
    loop: Optional[EventLoopThread] = None,
    policy: Optional[RuntimePolicy] = None,
) -> FederationRuntime:
    """Attach this tenant's runtime, multiplexed on the shared *loop*.

    In-process agents, with a simulated network wrapped around them when
    the config injects latency.  Async-mode runtimes hand their executor
    the shared loop; threaded ones keep private pools.
    *policy* overrides the one built from the config's pool sizes (the
    CLI passes its ``--sequential`` / ``--no-cache`` policy here).
    """
    fsm = session.fsm
    if policy is None:
        policy = RuntimePolicy(
            max_workers=max(1, config.max_workers),
            max_inflight=max(1, config.scan_inflight),
        )
    transport: Any = InProcessTransport(fsm._agents, fsm._schema_host)
    if config.latency_ms > 0:
        profile = FaultProfile(latency=config.latency_ms / 1000.0)
        transport = (
            AsyncSimulatedNetworkTransport(AsyncTransportAdapter(transport), profile)
            if config.mode == "async"
            else SimulatedNetworkTransport(transport, profile)
        )
    return session.enable_runtime(
        policy,
        transport=transport,
        mode=config.mode,
        shard_plan=ShardPlan(config.shards) if config.shards > 0 else None,
        cache_path=config.cache_path,
        loop=loop,
        plan=config.plan,
        deltas=config.deltas,
    )


class Tenant:
    """One tenant: an integrated session, its runtime, its fairness gate."""

    def __init__(
        self,
        config: TenantConfig,
        session: FederationSession,
        runtime: FederationRuntime,
    ) -> None:
        self.config = config
        self.session = session
        self.runtime = runtime
        self._gate = threading.BoundedSemaphore(config.max_inflight)
        self._meter = threading.Lock()
        self.queries = 0
        self.inflight = 0
        self.peak_inflight = 0

    @property
    def name(self) -> str:
        return self.config.name

    @classmethod
    def build(
        cls, config: TenantConfig, loop: Optional[EventLoopThread] = None
    ) -> "Tenant":
        session = build_session(config)
        runtime = attach_runtime(session, config, loop)
        return cls(config, session, runtime)

    # ------------------------------------------------------------------
    def query(
        self, query: FederatedQuery, appendix_b: bool = False
    ) -> Tuple[List[Dict[str, Any]], Optional[RuntimeStats], List[str]]:
        """Run one federated query under the tenant's admission gate.

        Returns ``(rows, per-query stats delta, drained warnings)``.
        The gate bounds this tenant's concurrent queries at
        ``config.max_inflight``; excess requests queue here rather than
        crowd the shared scan loop.
        """
        with self._gate:
            with self._meter:
                self.queries += 1
                self.inflight += 1
                self.peak_inflight = max(self.peak_inflight, self.inflight)
            try:
                fsm = self.session.fsm
                rows = fsm.query(query, appendix_b=appendix_b)
                return rows, fsm.last_query_stats, self.runtime.drain_warnings()
            finally:
                with self._meter:
                    self.inflight -= 1

    # ------------------------------------------------------------------
    def stats(self) -> RuntimeStats:
        return self.runtime.stats()

    def invalidate(
        self,
        agent: Optional[str] = None,
        schema: Optional[str] = None,
        class_name: Optional[str] = None,
    ) -> int:
        return self.runtime.invalidate(agent, schema, class_name)

    def bump_generation(self) -> int:
        return self.runtime.bump_generation()

    def describe(self) -> Dict[str, Any]:
        """A health-endpoint summary of this tenant."""
        return {
            "mode": self.config.mode,
            "schemas": sorted(self.session.fsm.schema_names()),
            "integrated": self.session.integrated is not None,
            "queries": self.queries,
            "inflight": self.inflight,
            "peak_inflight": self.peak_inflight,
            "max_inflight": self.config.max_inflight,
            "shards": self.config.shards,
            "cache_persistent": self.runtime.cache.persistent,
        }

    def close(self) -> None:
        """Release the tenant's runtime (idempotent)."""
        self.runtime.close()
