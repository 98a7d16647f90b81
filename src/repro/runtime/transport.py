"""Agent transports: how the runtime reaches FSM-agents.

The paper's FSM pulls one concept extension per agent call (§3,
Appendix B); :class:`AgentTransport` is that call made explicit.  A
:class:`ScanRequest` names the agent, schema, class and operation —
the class's ``direct_extent`` or its whole ``extent``; the transport
performs it and returns the list of instances.

Two implementations ship:

* :class:`InProcessTransport` — direct calls against registered
  :class:`~repro.federation.agent.FSMAgent` objects (the seed
  behaviour); they only compute, so it declares that it does not wait
  (:attr:`AgentTransport.waits`) and the threaded executor runs its
  scans on the calling thread unless a deadline is set;
* :class:`SimulatedNetworkTransport` — a decorator adding injectable
  per-agent latency, drop probability and scripted failures, so the
  executor's retry / circuit-breaker / partial-result machinery is
  testable without a real network.

A :class:`BatchScanRequest` groups many granules bound for **one**
endpoint into a single round-trip (the query planner's scan
coalescing).  Transports unpack it granule by granule and return a
:class:`BatchScanResult` whose per-granule values align with the batch
order; the fault model of the simulated network applies once per batch
— one latency, one drop roll, one scripted-failure attempt — because a
batch *is* one call on the wire, while the transfer cost still scales
with the total items carried.  A ``direct_extent`` request may carry a
*where* selection in the component's **local** vocabulary (the
planner's selection pushdown): the component store then materializes
only the instances that can match.  A narrowed scan may return less
than the full extent, so its selection is part of request identity and
cache key — a narrowed and a full scan of one class never share a
granule.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import threading
import time
from collections import defaultdict
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple, Union

from ..errors import RegistrationError, TransportError
from ..federation.agent import FSMAgent
from ..model.store import Selection, describe_selection

if TYPE_CHECKING:  # sharding imports ScanRequest; only the type flows back
    from .sharding import ShardSpec

#: operations a transport can perform against one class of one schema
_OPS = ("direct_extent", "extent")

#: most scripted-failure attempt counters a simulated network retains;
#: the oldest are evicted past this, so long-running traffic over many
#: distinct requests cannot grow the side table without bound
MAX_SCRIPT_ENTRIES = 1024


def _prune_scripts(attempts: Dict[Any, int], cap: int) -> None:
    """Evict the oldest attempt counters once *attempts* exceeds *cap*.

    Dicts iterate in insertion order, so the front of the table is the
    least-recently-scripted request set.  Call with the owner's lock held.
    """
    if len(attempts) <= cap:
        return
    for key in list(itertools.islice(iter(attempts), len(attempts) - cap)):
        del attempts[key]


@dataclasses.dataclass(frozen=True)
class ScanRequest:
    """One agent scan: the unit the executor schedules and the cache keys.

    A *shard* coordinate (see :mod:`repro.runtime.sharding`) narrows the
    scan to the slice of the extent that shard owns; unsharded requests
    leave it None and behave exactly as before.  A *where* selection —
    ``((local attribute, constant), ...)``, ``direct_extent`` only —
    lets the store skip instances whose attribute value cannot equal
    the constant.  Both take part in equality, hashing and
    :attr:`cache_key`.
    """

    agent: str
    schema: str
    class_name: str
    op: str = "direct_extent"
    shard: Optional["ShardSpec"] = None
    where: Selection = ()

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise TransportError(f"unknown scan op {self.op!r}; choose from {_OPS}")
        if self.where and self.op != "direct_extent":
            raise TransportError("only direct_extent scans take a selection")

    @property
    def endpoint(self) -> str:
        """The failure-domain name: ``agent`` or ``agent#index/of``.

        Circuit breakers, scan histograms and fault profiles key on
        this, so one shard trips and reports independently of its
        siblings, while :attr:`agent` stays the routing key.
        """
        if self.shard is None:
            return self.agent
        return f"{self.agent}{self.shard.suffix}"

    @property
    def cache_key(self) -> Tuple[Any, ...]:
        """The cache granule: ``(agent, schema, class)`` for unsharded
        scans, ``(agent, schema, class, (index, of))`` per shard.

        A narrowed scan appends ``("where", selection)``.
        """
        key: Tuple[Any, ...] = (self.agent, self.schema, self.class_name)
        if self.shard is not None:
            key += ((self.shard.index, self.shard.of),)
        if self.where:
            key += (("where", self.where),)
        return key

    def describe(self) -> str:
        suffix = f" where {describe_selection(self.where)}" if self.where else ""
        return f"{self.op}({self.endpoint}:{self.schema}.{self.class_name}{suffix})"

    @property
    def granules(self) -> Tuple["ScanRequest", ...]:
        """The cacheable units this dispatch carries (itself)."""
        return (self,)


@dataclasses.dataclass(frozen=True)
class BatchScanRequest:
    """Many granules for **one** endpoint, shipped as one round-trip.

    The planner coalesces every :class:`ScanRequest` bound for the same
    endpoint into one of these; the executor schedules it like any
    other request (one dispatch, one retry budget, one breaker entry),
    and transports unpack it granule by granule.  Results come back as
    a :class:`BatchScanResult` aligned with :attr:`requests`, and the
    caller re-keys them per granule — the cache never sees the batch.
    """

    requests: Tuple[ScanRequest, ...]

    def __post_init__(self) -> None:
        if not self.requests:
            raise TransportError("a batch scan needs at least one granule")
        endpoints = {request.endpoint for request in self.requests}
        if len(endpoints) > 1:
            raise TransportError(
                "a batch scan targets one endpoint; got "
                + ", ".join(sorted(endpoints))
            )

    @property
    def agent(self) -> str:
        return self.requests[0].agent

    @property
    def endpoint(self) -> str:
        return self.requests[0].endpoint

    @property
    def shard(self) -> Optional["ShardSpec"]:
        return self.requests[0].shard

    @property
    def granules(self) -> Tuple[ScanRequest, ...]:
        """The cacheable units this dispatch carries."""
        return self.requests

    def __len__(self) -> int:
        return len(self.requests)

    def describe(self) -> str:
        ops = ", ".join(
            f"{request.op}:{request.schema}.{request.class_name}"
            for request in self.requests
        )
        return f"batch[{len(self.requests)}]({self.endpoint}: {ops})"


@dataclasses.dataclass(frozen=True)
class BatchScanResult:
    """Per-granule values of a batch, aligned with the batch order.

    ``len()`` is the **total item count across granules**, so the
    simulated network's ``per_item`` transfer cost stays honest: a
    batch moves the same data as its granules would separately, it just
    pays latency once.
    """

    values: Tuple[Any, ...]

    def __len__(self) -> int:
        return transfer_item_count(self)


#: anything the executor can dispatch: one granule or a coalesced batch
Scannable = Union[ScanRequest, BatchScanRequest]


def transfer_item_count(result: Any) -> int:
    """Data items a transport reply carries, for ``per_item`` pricing.

    Counts what actually crosses the wire: a batch is the sum of its
    granule payloads (a coalesced round-trip moves the same data as its
    granules would separately — it only pays latency once); ``None``
    carries nothing; only a genuinely opaque (unsized) payload falls
    back to one item.  Before this helper, any non-sized result —
    including a whole batch value that failed ``len()`` — was silently
    priced as ``per_item * 1``, making coalesced round-trips look
    cheaper than the singleton scans they replaced.
    """
    if result is None:
        return 0
    if isinstance(result, BatchScanResult):
        return sum(transfer_item_count(value) for value in result.values)
    try:
        return len(result)
    except TypeError:
        return 1


class ControlPlane:
    """The synchronous half of both transport protocols: cheap, local
    lookups with no latency or fault injection, the same in every mode."""

    def agent_names(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def agent_for_schema(self, schema_name: str) -> str:
        """The agent hosting *schema_name*."""
        raise NotImplementedError

    def generation(self, request: ScanRequest) -> Optional[int]:
        """Backing-store version for *request*, or None when unobservable.

        Caches compare this against the generation an entry was filled
        at, so component-database writes invalidate stale extents.
        """
        return None

    def changes(self, request: ScanRequest, since: int) -> Optional[Any]:
        """The delta chain from *since* to the store's current version.

        A control-plane lookup like :meth:`generation` — cheap, local,
        no fault injection.  Returns ``None`` when the store keeps no
        delta feed at all (the cache then relies on ordinary version-
        mismatch eviction), or a
        :class:`~repro.runtime.deltas.DeltaReply` whose ``chain`` is
        ``None`` when a feed exists but cannot cover the span.
        """
        return None


class AgentTransport(ControlPlane):
    """Protocol: route :class:`ScanRequest`\\ s to component systems.

    :attr:`waits` says whether ``perform`` waits on something outside
    the process (a network, a remote agent).  The threaded executor
    fans a scan out on threads when it does (or when a deadline is
    set): threads overlap waits, but in-process scans only compute, and
    computing threads contend for the interpreter instead of
    overlapping.  A transport that does not know keeps the default.
    """

    #: does ``perform`` wait (True) or only compute in-process (False)?
    waits: bool = True

    def perform(self, request: Scannable) -> Any:
        """Execute the scan (or coalesced batch) and return its raw value."""
        raise NotImplementedError


class InProcessTransport(AgentTransport):
    """Direct calls against live :class:`FSMAgent` objects.

    *agents* may be the FSM's own (mutable) registry — agents registered
    after construction are visible, matching
    :meth:`repro.federation.fsm.FSM.use_runtime` semantics.  Its scans
    only compute (:attr:`waits` is False), so the threaded executor runs
    them on the calling thread when no deadline is set.
    """

    waits = False

    def __init__(
        self,
        agents: Mapping[str, FSMAgent],
        schema_host: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._agents = agents
        self._schema_host = schema_host

    def agent_names(self) -> Tuple[str, ...]:
        return tuple(self._agents)

    def agent_for_schema(self, schema_name: str) -> str:
        if self._schema_host is not None and schema_name in self._schema_host:
            return self._schema_host[schema_name]
        for name, agent in self._agents.items():
            if schema_name in agent.schema_names():
                return name
        raise RegistrationError(f"no registered agent hosts schema {schema_name!r}")

    def _agent(self, name: str) -> FSMAgent:
        try:
            return self._agents[name]
        except KeyError:
            raise RegistrationError(f"no agent {name!r} registered") from None

    def generation(self, request: ScanRequest) -> Optional[int]:
        try:
            return self._agent(request.agent).database(request.schema).version
        except RegistrationError:
            return None

    def changes(self, request: ScanRequest, since: int) -> Optional[Any]:
        try:
            return self._agent(request.agent).fetch_changes(request.schema, since)
        except RegistrationError:
            return None

    def perform(self, request: Scannable) -> Any:
        if isinstance(request, BatchScanRequest):
            # one round-trip on the wire; granule semantics are untouched
            return BatchScanResult(
                tuple(self.perform(granule) for granule in request.requests)
            )
        agent = self._agent(request.agent)
        if request.op == "direct_extent":
            return agent.fetch_direct_extent(
                request.schema, request.class_name, request.shard, request.where
            )
        return agent.fetch_extent(request.schema, request.class_name, request.shard)


@dataclasses.dataclass(frozen=True)
class FaultProfile:
    """Injectable faults for one agent (or shard endpoint) behind the
    simulated network."""

    #: fixed seconds added to every call
    latency: float = 0.0
    #: extra uniform-random seconds on top of the fixed latency
    jitter: float = 0.0
    #: probability a call is dropped (raises TransportError)
    drop_rate: float = 0.0
    #: each distinct request fails its first N attempts, then succeeds —
    #: the deterministic "flaky agent" script retries must ride out
    fail_times: int = 0
    #: seconds per result item (transfer cost) — what sharding amortises:
    #: N concurrent shards each carry ~1/N of the extent
    per_item: float = 0.0


class DelegatingTransport(ControlPlane):
    """Control-plane forwarding to the wrapped transport ``_inner``, for
    wrappers that change only how a scan is *performed*."""

    def __init__(self, inner: Any) -> None:
        self._inner = inner

    def agent_names(self) -> Tuple[str, ...]:
        return self._inner.agent_names()

    def agent_for_schema(self, schema_name: str) -> str:
        return self._inner.agent_for_schema(schema_name)

    def generation(self, request: ScanRequest) -> Optional[int]:
        return self._inner.generation(request)

    def changes(self, request: ScanRequest, since: int) -> Optional[Any]:
        return self._inner.changes(request, since)


class FaultInjector(DelegatingTransport):
    """The simulated network's fault model, shared by both simulators.

    Per-agent :class:`FaultProfile`\\ s are installed with
    :meth:`set_profile`; agents without one use *default_profile*.  A
    profile may also target one shard endpoint (``"agent1#2/4"``) — the
    lookup tries the exact endpoint first, then the base agent — so a
    single shard can be killed while its siblings stay healthy.
    Randomness is seeded, so runs are reproducible.

    :meth:`_roll` decides one call's fate under the lock; the threaded
    and asyncio simulators differ only in how they wait out the delay.
    Scripted failures count attempts per request *as the request
    compares*: a narrowed and a full scan of one class are different
    requests, so each keeps its own attempt history.
    """

    def __init__(
        self,
        inner: Any,
        default_profile: Optional[FaultProfile] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(inner)
        self._default = default_profile or FaultProfile()
        self._profiles: Dict[str, FaultProfile] = {}
        self._attempts: Dict[Scannable, int] = defaultdict(int)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        #: calls that reached this transport, per agent (injected faults
        #: included) — the "network side" view of the access histogram
        self.calls: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def set_profile(self, agent: str, profile: FaultProfile) -> FaultProfile:
        """Install *profile* for an agent name or shard endpoint name."""
        self._profiles[agent] = profile
        return profile

    def profile_for(self, endpoint: str) -> FaultProfile:
        """Endpoint profile, falling back to the base agent's, then the
        default."""
        if endpoint in self._profiles:
            return self._profiles[endpoint]
        base = endpoint.split("#", 1)[0]
        return self._profiles.get(base, self._default)

    def reset_scripts(self) -> None:
        """Forget scripted-failure attempt counters (fresh fault run)."""
        with self._lock:
            self._attempts.clear()

    # ------------------------------------------------------------------
    def _roll(
        self, request: Scannable
    ) -> Tuple[FaultProfile, float, Optional[TransportError]]:
        """One call's fate: its profile, the delay before the reply, and
        the injected error to raise after that delay (None to go on)."""
        endpoint = request.endpoint
        profile = self.profile_for(endpoint)
        with self._lock:
            self.calls[endpoint] += 1
            if profile.fail_times > 0:
                # only scripted endpoints need per-request attempt history;
                # tracking every healthy request would grow without bound
                self._attempts[request] += 1
                attempt = self._attempts[request]
                _prune_scripts(self._attempts, MAX_SCRIPT_ENTRIES)
            else:
                attempt = 1
            jitter = self._rng.random() * profile.jitter if profile.jitter else 0.0
            dropped = (
                profile.drop_rate > 0.0 and self._rng.random() < profile.drop_rate
            )
        fault = None
        if attempt <= profile.fail_times:
            fault = TransportError(
                f"injected failure {attempt}/{profile.fail_times} from agent "
                f"{endpoint!r} ({request.describe()})"
            )
        elif dropped:
            fault = TransportError(
                f"reply from agent {endpoint!r} dropped ({request.describe()})"
            )
        return profile, profile.latency + jitter, fault

    @staticmethod
    def _transfer_delay(profile: FaultProfile, result: Any) -> float:
        """Seconds the reply takes to cross the wire (``per_item`` pricing)."""
        if profile.per_item <= 0.0:
            return 0.0
        return transfer_item_count(result) * profile.per_item


class SimulatedNetworkTransport(FaultInjector, AgentTransport):
    """A transport decorator that injects latency, drops and failures,
    waiting them out on the calling thread (see :class:`FaultInjector`)."""

    def __init__(
        self,
        inner: AgentTransport,
        default_profile: Optional[FaultProfile] = None,
        seed: int = 0,
        clock: Any = time.sleep,
    ) -> None:
        super().__init__(inner, default_profile, seed)
        self._sleep = clock

    def perform(self, request: Scannable) -> Any:
        profile, delay, fault = self._roll(request)
        if delay > 0.0:
            self._sleep(delay)
        if fault is not None:
            raise fault
        result = self._inner.perform(request)
        transfer = self._transfer_delay(profile, result)
        if transfer > 0.0:
            self._sleep(transfer)
        return result
