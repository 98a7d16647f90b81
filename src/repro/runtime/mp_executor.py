"""The multiprocess data plane: shard scans in worker processes.

The threaded executor fans scans out over a thread pool, but the §3
per-item work — deserializing rows, coercing types, running the data
mappings, filtering shard ownership — is pure Python and serializes on
the GIL: E-R1/E-R4 show throughput flatlining as workers are added.
``mode="multiprocess"`` moves that work into
:class:`concurrent.futures.ProcessPoolExecutor` workers:

* :func:`build_worker_spec` captures a picklable description of every
  hosted component store — a sqlite/CSV/JSON source adapter ships as
  its **manifest entry** (:func:`~repro.sources.manifest.adapter_entry`:
  kind, path, declared relations and §3 data mappings in the
  ``federation.json`` vocabulary) and each worker's initializer
  rebuilds it with :func:`~repro.sources.manifest.build_adapter`, the
  loader of a source directory; native object databases and memory
  sources ship by value (rows, tombstones and version included);
* :class:`ProcessPoolTransport` replaces the innermost
  :class:`~repro.runtime.transport.InProcessTransport` hop of a
  transport chain, dispatching each :class:`Scannable` (a shard
  granule, or one shard's whole coalesced batch) to the pool; extents
  come back as plain pickled instance lists — the format the
  persistent tier stores — so shard merges, the cache and callers see
  exactly what the threaded runtime hands them.  Control-plane calls —
  ``generation``, ``changes``, agent lookup — stay parent-side, so the
  cache, persistence and delta-feed paths are byte-for-byte the ones
  the threaded runtime uses.

``mode="multiprocess"`` drives the pool with the threaded
:class:`~repro.runtime.executor.FederationExecutor` unchanged (retry,
backoff, breaker, and deadlines via
:func:`~repro.runtime.executor._call_with_timeout`): the pool hop
raises the same :class:`~repro.errors.TransportError` taxonomy the
simulated network does, and the runtime closes the pool on
:meth:`~repro.runtime.runtime.FederationRuntime.close`.

Worker snapshots are guarded by **generation staleness**: the spec
records each store's version at build time, and a ``perform`` that
observes a newer parent-side version rebuilds the pool before
dispatching, so a component write is never answered from a stale
worker snapshot.  The pool uses the ``spawn`` start method
unconditionally — the fork-unsafe-by-default semantics of macOS and
Windows — so CI exercises the portable path everywhere.

Worker exceptions are re-raised as plain, single-argument
:class:`~repro.errors.TransportError`\\ s: richer exception types with
multi-argument constructors do not survive the pickle round-trip, and
a worker fault should land on the executor's retry / breaker / lost
granule path exactly like a dropped reply.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple, Type, TypeVar

from ..errors import RuntimeFederationError, TransportError
from ..federation.agent import FSMAgent
from .transport import (
    AgentTransport,
    DelegatingTransport,
    InProcessTransport,
    Scannable,
)

__all__ = [
    "ProcessPoolTransport",
    "find_hop",
    "wrap_multiprocess",
]


# ----------------------------------------------------------------------
# worker bootstrap specs (everything here must pickle under spawn)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class AgentSpec:
    name: str
    system: str
    #: per hosted store: ``(schema, manifest entry)`` for a disk source,
    #: else the store itself, shipped by value
    stores: Tuple[Any, ...]


@dataclasses.dataclass(frozen=True)
class WorkerSpec:
    agents: Tuple[AgentSpec, ...]
    schema_host: Optional[Tuple[Tuple[str, str], ...]]


def _store_spec(store: Any) -> Any:
    """How a worker gets *store*: a sqlite/CSV/JSON source as its
    manifest entry plus the hosted schema name; a native object database
    or a memory source by value (both pickle whole)."""
    from ..sources.manifest import ADAPTER_KINDS, adapter_entry

    adapter = getattr(store, "adapter", None)
    if adapter is not None and adapter.kind in ADAPTER_KINDS:
        return (store.schema.name, adapter_entry(adapter))
    return store


def build_worker_spec(
    agents: Mapping[str, FSMAgent],
    schema_host: Optional[Mapping[str, str]] = None,
) -> Tuple[WorkerSpec, Dict[Tuple[str, str], Optional[int]]]:
    """Snapshot the agent registry into a picklable worker spec.

    Returns the spec plus the ``(agent, schema) → version`` map observed
    at snapshot time — the staleness fingerprint
    :class:`ProcessPoolTransport` compares before every dispatch.  A
    store shipped by value is pickled when a worker starts, after this
    snapshot, so a worker's copy is never older than its recorded
    version.
    """
    agent_specs = []
    versions: Dict[Tuple[str, str], Optional[int]] = {}
    for name, agent in dict(agents).items():
        stores = []
        for schema in agent.schema_names():
            store = agent.database(schema)
            stores.append(_store_spec(store))
            versions[(name, schema)] = getattr(store, "version", None)
        agent_specs.append(AgentSpec(name, agent.system, tuple(stores)))
    host = tuple(schema_host.items()) if schema_host is not None else None
    return WorkerSpec(tuple(agent_specs), host), versions


# ----------------------------------------------------------------------
# worker side (module-level: spawn pickles these by qualified name)
# ----------------------------------------------------------------------
_WORKER_TRANSPORT: Optional[InProcessTransport] = None


def _worker_initialize(spec: WorkerSpec) -> None:
    """Per-process bootstrap: rebuild the agents behind a local transport."""
    global _WORKER_TRANSPORT
    from ..sources.manifest import build_adapter

    agents: Dict[str, FSMAgent] = {}
    for agent_spec in spec.agents:
        agent = FSMAgent(agent_spec.name, system=agent_spec.system)
        for store in agent_spec.stores:
            if isinstance(store, tuple):
                schema, entry = store
                store = build_adapter(Path(), entry).database(schema)
            agent.host_source(store)
        agents[agent_spec.name] = agent
    schema_host = dict(spec.schema_host) if spec.schema_host is not None else None
    _WORKER_TRANSPORT = InProcessTransport(agents, schema_host)


def _worker_scan(request: Scannable) -> Any:
    """One scan inside a worker; the reply pickles back as it is."""
    transport = _WORKER_TRANSPORT
    if transport is None:  # pragma: no cover - initializer always ran
        raise TransportError("worker process was never initialized")
    try:
        return transport.perform(request)
    except BaseException as error:  # noqa: BLE001 - must cross pickle boundary
        raise TransportError(
            f"worker scan failed ({request.describe()}): "
            f"{type(error).__name__}: {error}"
        ) from None


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessPoolTransport(DelegatingTransport, AgentTransport):
    """Dispatch scans to a spawn-based worker pool; control plane stays local.

    Wraps an :class:`InProcessTransport` (or a chain ending in one):
    ``perform`` ships the :class:`Scannable` to a worker — a coalesced
    :class:`BatchScanRequest` keeps one shard's granules in one task,
    so task batching follows the shard plan — while ``generation`` /
    ``changes`` / agent lookup answer from the parent's live registry.
    """

    def __init__(
        self,
        inner: AgentTransport,
        workers: int = 8,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
    ) -> None:
        super().__init__(inner)
        registry = find_hop(inner, InProcessTransport)
        if registry is None:
            raise RuntimeFederationError(_NO_REGISTRY)
        self._registry = registry
        self._workers = max(1, int(workers))
        # spawn unconditionally: matches macOS/Windows semantics and
        # never inherits the parent's locks mid-flight
        self._context = mp_context or multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._versions: Dict[Tuple[str, str], Optional[int]] = {}
        self._closed = False
        #: pool (re)builds — 1 on first dispatch, +1 per staleness refresh
        self.rebuilds = 0

    # -------------------------------------------------- pool lifecycle
    def _build_pool(self) -> None:
        """(Re)create the pool from a fresh registry snapshot (locked)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        spec, versions = build_worker_spec(
            self._registry._agents, self._registry._schema_host
        )
        self._pool = ProcessPoolExecutor(
            max_workers=self._workers,
            mp_context=self._context,
            initializer=_worker_initialize,
            initargs=(spec,),
        )
        self._versions = versions
        self.rebuilds += 1

    def _stale(self, request: Scannable) -> bool:
        """Did any granule's store move past the worker snapshot?"""
        for granule in request.granules:
            key = (granule.agent, granule.schema)
            current = self._inner.generation(granule)
            if key not in self._versions:
                if current is not None:
                    return True  # registered after the snapshot
                continue
            if self._versions[key] != current:
                return True
        return False

    def perform(self, request: Scannable) -> Any:
        with self._lock:
            if self._closed:
                raise TransportError("multiprocess transport is closed")
            if self._pool is None or self._stale(request):
                self._build_pool()
            pool = self._pool
        assert pool is not None
        try:
            return pool.submit(_worker_scan, request).result()
        except TransportError:
            raise
        except BrokenProcessPool as error:
            raise TransportError(
                f"multiprocess worker pool broke ({request.describe()}): {error}"
            ) from error
        except RuntimeError as error:
            raise TransportError(
                f"multiprocess dispatch failed ({request.describe()}): {error}"
            ) from error

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None


_Hop = TypeVar("_Hop")


def _hops(transport: Any) -> Iterator[Any]:
    """The hops of a transport chain, outermost first."""
    hop = transport
    while hop is not None:
        yield hop
        hop = getattr(hop, "_inner", None)


def find_hop(transport: Any, kind: Type[_Hop]) -> Optional[_Hop]:
    """The outermost hop of *transport*'s chain that is a *kind*, or None."""
    return next((hop for hop in _hops(transport) if isinstance(hop, kind)), None)


_NO_REGISTRY = (
    "multiprocess mode needs an in-process agent registry at the "
    "bottom of the transport chain to bootstrap its workers"
)


def wrap_multiprocess(
    transport: AgentTransport, workers: int = 8
) -> AgentTransport:
    """Splice a :class:`ProcessPoolTransport` into *transport*'s chain.

    The innermost :class:`InProcessTransport` hop is replaced, so
    parent-side wrappers (e.g. a
    :class:`~repro.runtime.transport.SimulatedNetworkTransport` pricing
    latency and per-item transfer) keep observing every dispatch.
    Idempotent: a chain that already dispatches to a pool is returned
    unchanged.
    """
    outer: Any = None
    for hop in _hops(transport):
        if isinstance(hop, ProcessPoolTransport):
            return transport
        if isinstance(hop, InProcessTransport):
            pool = ProcessPoolTransport(hop, workers=workers)
            if outer is None:
                return pool
            outer._inner = pool
            return transport
        outer = hop
    raise RuntimeFederationError(_NO_REGISTRY)
