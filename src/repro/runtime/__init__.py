"""Federation runtime: concurrent, fault-tolerant, observable agent access.

The paper's FSM pulls one concept extension per FSM-agent call (§3,
Appendix B); the seed did every pull synchronously with no failure
model.  This package is the distribution/runtime layer between the
query paths and the agents:

* :mod:`~repro.runtime.transport` — the :class:`AgentTransport`
  abstraction: in-process calls or a simulated network with injectable
  latency, drops and flaky agents;
* :mod:`~repro.runtime.executor` — the failure model, written once: a
  sans-IO attempt loop (per-call timeouts, bounded exponential-backoff
  retries, per-agent circuit breakers, failure classification), the
  fan-out shapes every engine shares, and its thread-pool driver;
* :mod:`~repro.runtime.async_transport` / :mod:`~repro.runtime.async_executor`
  — the asyncio calling convention: coroutine transports (the same
  fault injection, sleeping on the loop, not a thread) and the
  event-loop driver of the same attempt loop, with ``asyncio.timeout``
  deadlines and a semaphore-bounded in-flight window;
* :mod:`~repro.runtime.sharding` — :class:`ShardPlan` /
  :class:`ShardSpec`: split one schema's extent across N shard
  endpoints (a hash over global OIDs) and merge the slices back
  with OID-level dedup and exact missing-shard reporting;
* :mod:`~repro.runtime.cache` — the ``(agent, schema, class)`` extent
  cache (plus an ``(index, of)`` coordinate per shard
  granule) with explicit and generation-based invalidation;
* :mod:`~repro.runtime.persistence` — the sqlite-backed
  :class:`PersistentExtentStore` the cache spills granules into, so a
  federation restarted with the same cache path warms up scan-free;
* :mod:`~repro.runtime.metrics` — counters, phase timers and per-agent
  access histograms behind :class:`RuntimeStats` snapshots;
* :mod:`~repro.runtime.planner` — the query planner: §6 assertion-graph
  pruning applied at query time, scan coalescing into per-endpoint
  :class:`BatchScanRequest` round-trips, and, on cache-off runtimes,
  pushdown of the query's equalities as local-vocabulary selections;
* :mod:`~repro.runtime.runtime` — the :class:`FederationRuntime` facade
  the FSM attaches via :meth:`repro.federation.fsm.FSM.use_runtime`.
"""

from .async_executor import AsyncFederationExecutor, EventLoopThread
from .async_transport import (
    AsyncAgentTransport,
    AsyncInProcessTransport,
    AsyncSimulatedNetworkTransport,
    AsyncTransportAdapter,
)
from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .cache import MISS, ExtentCache
from .deltas import (
    DELTA_OPS,
    DeltaLog,
    DeltaOutcome,
    DeltaRecord,
    DeltaReply,
    DeltaUnpatchable,
    SourceDelta,
    describe_granule,
)
from .executor import (
    FederationExecutor,
    ScanFailure,
    ScanOutcome,
    coalesce_by_endpoint,
    expand_outcome,
)
from .metrics import RuntimeMetrics, RuntimeStats, TimerStats
from .persistence import FORMAT_VERSION, PersistentExtentStore
from .planner import QueryPlan, contributing_classes, plan_query
from .policy import FailurePolicy, RuntimePolicy
from .runtime import MODES, FederationRuntime
from .sharding import (
    ShardPlan,
    ShardSpec,
    ShardedOutcome,
    merge_shard_values,
    shard_of_oid,
    split_requests,
)
from .transport import (
    AgentTransport,
    BatchScanRequest,
    BatchScanResult,
    FaultProfile,
    InProcessTransport,
    ScanRequest,
    SimulatedNetworkTransport,
    transfer_item_count,
)

__all__ = [
    "AgentTransport",
    "BatchScanRequest",
    "BatchScanResult",
    "AsyncAgentTransport",
    "AsyncFederationExecutor",
    "AsyncInProcessTransport",
    "AsyncSimulatedNetworkTransport",
    "AsyncTransportAdapter",
    "CLOSED",
    "CircuitBreaker",
    "DELTA_OPS",
    "DeltaLog",
    "DeltaOutcome",
    "DeltaRecord",
    "DeltaReply",
    "DeltaUnpatchable",
    "EventLoopThread",
    "ExtentCache",
    "FORMAT_VERSION",
    "FailurePolicy",
    "FaultProfile",
    "FederationExecutor",
    "FederationRuntime",
    "HALF_OPEN",
    "InProcessTransport",
    "MISS",
    "MODES",
    "OPEN",
    "PersistentExtentStore",
    "QueryPlan",
    "RuntimeMetrics",
    "RuntimePolicy",
    "RuntimeStats",
    "ScanFailure",
    "ScanOutcome",
    "ScanRequest",
    "ShardPlan",
    "ShardSpec",
    "ShardedOutcome",
    "SimulatedNetworkTransport",
    "SourceDelta",
    "TimerStats",
    "coalesce_by_endpoint",
    "contributing_classes",
    "describe_granule",
    "expand_outcome",
    "merge_shard_values",
    "plan_query",
    "shard_of_oid",
    "split_requests",
    "transfer_item_count",
]
