"""The failure model, written once, and its thread-pool driver.

How the FSM treats an FSM-agent (§3) that is slow, flaky or down lives
here exactly once.  :class:`AttemptLoop` is one request's trip through
it, with no IO of its own: circuit-breaker admission, round-trip and
scan accounting, per-call **timeouts** and transport failures feeding
the per-agent breaker and the counters, bounded **retries** with
exponential backoff, and the one exception → :class:`ScanFailure`
classifier.  :class:`ScanExecutor` adds the fan-out shapes every engine
shares — :meth:`~ScanExecutor.run` (a :class:`ScanOutcome` the caller's
:class:`~repro.runtime.policy.FailurePolicy` degrades or refuses),
:meth:`~ScanExecutor.run_coalesced` and :meth:`~ScanExecutor.run_sharded`.

An engine is a *driver* stepping the loop in its own calling
convention: :class:`FederationExecutor` on threads (deadlines from
:func:`_call_with_timeout`, and a pool bounded by ``max_workers`` for a
transport that waits or a policy with a deadline; in-process scans
with no deadline run on the calling thread),
:class:`~repro.runtime.async_executor.AsyncFederationExecutor` as
coroutines.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..errors import (
    AgentTimeoutError,
    CircuitOpenError,
    ReproError,
    TransportError,
)
from .breaker import CLOSED, CircuitBreaker
from .metrics import RuntimeMetrics
from .policy import RuntimePolicy
from .sharding import ShardPlan, ShardedOutcome, merge_outcome, split_requests
from .transport import (
    BatchScanRequest,
    BatchScanResult,
    Scannable,
    ScanRequest,
)


@dataclasses.dataclass(frozen=True)
class ScanFailure:
    """One scan that failed past all retries (or was fast-failed)."""

    request: Scannable
    error: str
    kind: str  # "transport" | "timeout" | "circuit_open" | "error"
    attempts: int

    def describe(self) -> str:
        return f"{self.request.describe()} failed after {self.attempts} attempt(s): {self.error}"


class ScanOutcome:
    """Fan-out result: per-request values plus the failures."""

    def __init__(
        self,
        results: Dict[Scannable, Any],
        failures: Sequence[ScanFailure] = (),
    ) -> None:
        self.results = results
        self.failures = list(failures)

    @property
    def partial(self) -> bool:
        return bool(self.failures)

    def warnings(self) -> List[str]:
        return [failure.describe() for failure in self.failures]


def coalesce_by_endpoint(requests: Iterable[ScanRequest]) -> List[Scannable]:
    """Group granules by endpoint: N granules for one endpoint become one
    :class:`BatchScanRequest` (one round-trip); singletons stay plain.

    Order is preserved — endpoints appear in first-seen order and each
    batch keeps its granules in request order, so results re-key
    deterministically.
    """
    groups: Dict[str, List[ScanRequest]] = {}
    for request in requests:
        groups.setdefault(request.endpoint, []).append(request)
    dispatches: List[Scannable] = []
    for members in groups.values():
        if len(members) == 1:
            dispatches.append(members[0])
        else:
            dispatches.append(BatchScanRequest(tuple(members)))
    return dispatches


def expand_outcome(outcome: ScanOutcome, metrics: RuntimeMetrics) -> ScanOutcome:
    """Re-key a coalesced fan-out back to per-granule results.

    Batch values are zipped against their granules in batch order; a
    failed batch expands to one :class:`ScanFailure` per granule — the
    exact account of what was lost.  Every lost granule (batched or a
    singleton dispatch) is recorded in the metrics so
    :attr:`RuntimeStats.lost_granules` names them uniformly.
    """
    results: Dict[Scannable, Any] = {}
    failures: List[ScanFailure] = []
    for request, value in outcome.results.items():
        if isinstance(request, BatchScanRequest):
            assert isinstance(value, BatchScanResult)
            for granule, granule_value in zip(request.requests, value.values):
                results[granule] = granule_value
        else:
            results[request] = value
    for failure in outcome.failures:
        if isinstance(failure.request, BatchScanRequest):
            for granule in failure.request.requests:
                failures.append(dataclasses.replace(failure, request=granule))
                metrics.record("lost_granules", granule.describe())
        else:
            failures.append(failure)
            metrics.record("lost_granules", failure.request.describe())
    return ScanOutcome(results, failures)


def _call_with_timeout(fn: Callable[[], Any], timeout: Optional[float], agent: str) -> Any:
    """Run *fn* in a helper thread, abandoning it past *timeout* seconds
    (None: call it inline, with no deadline).

    Synchronous transports cannot be interrupted; an overdue call keeps
    running in its daemon thread and its eventual result is discarded —
    the standard thread-pool timeout compromise.
    """
    if timeout is None:
        return fn()
    holder: Dict[str, Any] = {}
    done = threading.Event()

    def target() -> None:
        try:
            holder["value"] = fn()
        except BaseException as error:  # noqa: BLE001 - re-raised below
            holder["error"] = error
        finally:
            done.set()

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    if not done.wait(timeout):
        raise AgentTimeoutError(agent, timeout)
    if "error" in holder:
        raise holder["error"]
    return holder["value"]


#: error class -> ScanFailure.kind, most specific first; anything else is "error"
_KINDS = (
    (CircuitOpenError, "circuit_open"),
    (AgentTimeoutError, "timeout"),
    (TransportError, "transport"),
)


#: an :class:`AttemptLoop` value before any dispatch succeeded
_PENDING = object()


class AttemptLoop:
    """One request's trip through the failure model, free of IO.

    A driver steps it — ``while loop.admit():`` perform, then report
    :meth:`succeeded` or :meth:`failed` and wait out the backoff the
    latter returns.  The failure domain is :attr:`ScanRequest.endpoint`
    (``agent#index/of`` for a shard), so each shard has its own circuit
    and histograms.  A :class:`BatchScanRequest` is one dispatch (one
    round-trip, one retry budget) recording N ``agent_scans``, so the
    scan histogram stays comparable across planned and unplanned runs.
    """

    def __init__(self, executor: "ScanExecutor", request: Scannable) -> None:
        self.request = request
        self.endpoint = request.endpoint
        self.policy = executor.policy
        self.breaker = executor.breaker
        self.metrics = executor.metrics
        #: dispatches that actually went on the wire
        self.dispatches = 0
        self.value: Any = _PENDING
        #: the final error, once the loop gave up (None on success)
        self.error: Optional[ReproError] = None
        self._last: Optional[TransportError] = None
        self._probing = False

    def admit(self) -> bool:
        """Admit the next dispatch (True), or end the loop (False) — after
        a success, a final failure, or an open circuit."""
        if self.error is not None or self.value is not _PENDING:
            return False
        self._probing = self.breaker.state(self.endpoint) != CLOSED
        if not self.breaker.allow(self.endpoint):
            self.metrics.incr("circuit_rejections")
            self.error = CircuitOpenError(self.endpoint, self._last)
            return False
        self.dispatches += 1
        self.metrics.record("agent_round_trips", self.endpoint)
        self.metrics.record("agent_scans", self.endpoint, len(self.request.granules))
        return True

    def succeeded(self, value: Any) -> None:
        self.breaker.record_success(self.endpoint)
        self.value = value

    def failed(self, error: BaseException) -> Optional[float]:
        """Account one failed dispatch; return the backoff before the next
        attempt, or None when the loop is over.

        Timeouts and transport failures feed the breaker and are retried.
        Any other error ends the loop with no outcome for the breaker, so
        an admitted half-open probe gives its slot back; errors outside
        the library's taxonomy (cancellation, exits, bugs) then re-raise.
        """
        if not isinstance(error, TransportError):
            if self._probing:
                self.breaker.abandon_probe(self.endpoint)
            if not isinstance(error, ReproError):
                raise error
            self.error = error
            return None
        timed_out = isinstance(error, AgentTimeoutError)
        self.metrics.incr("timeouts" if timed_out else "transport_failures")
        if self.breaker.record_failure(self.endpoint):
            self.metrics.incr("breaker_trips")
        self._last = error
        if self.dispatches > self.policy.max_retries:
            self.error = error
            return None
        self.metrics.incr("retries")
        return self.policy.backoff(self.dispatches)

    def result(self) -> Any:
        """The value, or the final error raised."""
        if self.error is not None:
            raise self.error
        return self.value

    def failure(self) -> ScanFailure:
        """The exception → :class:`ScanFailure` classifier."""
        kind = next((kind for cls, kind in _KINDS if isinstance(self.error, cls)), "error")
        return ScanFailure(self.request, str(self.error), kind, self.dispatches)


class ScanExecutor:
    """The fan-out shapes every engine shares, over a driver's
    :meth:`_attempt` (one request) and :meth:`_attempt_all` (many)."""

    def __init__(
        self,
        transport: Any,
        policy: Optional[RuntimePolicy] = None,
        metrics: Optional[RuntimeMetrics] = None,
        breaker: Optional[CircuitBreaker] = None,
        sleep: Callable[[float], Any] = time.sleep,
    ) -> None:
        self.transport = transport
        self.policy = policy or RuntimePolicy()
        self.metrics = metrics or RuntimeMetrics()
        self.breaker = breaker or CircuitBreaker(
            self.policy.breaker_threshold, self.policy.breaker_reset
        )
        self._sleep = sleep

    def _attempt(self, request: Scannable) -> AttemptLoop:
        """Driver hook: run *request*'s attempt loop to its end."""
        raise NotImplementedError

    def _attempt_all(self, requests: List[Scannable]) -> List[AttemptLoop]:
        """Driver hook: run many attempt loops concurrently, in order."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run_one(self, request: Scannable) -> Any:
        """One dispatch through the retry / breaker / timeout machinery;
        raises the final error."""
        return self._attempt(request).result()

    def run(self, requests: Iterable[Scannable]) -> ScanOutcome:
        """Fan *requests* out; never raises for per-scan failures."""
        pending = list(requests)
        if not pending:
            return ScanOutcome({})
        return self._outcome(self._attempt_all(pending))

    def _outcome(self, loops: Iterable[AttemptLoop]) -> ScanOutcome:
        results: Dict[Scannable, Any] = {}
        failures: List[ScanFailure] = []
        for loop in loops:
            if loop.error is None:
                results[loop.request] = loop.value
            else:
                failures.append(loop.failure())
        if failures:
            self.metrics.incr("scan_failures", len(failures))
        return ScanOutcome(results, failures)

    def run_coalesced(self, requests: Iterable[ScanRequest]) -> ScanOutcome:
        """Fan *requests* out with scan coalescing: all granules bound for
        one endpoint ride a single batched round-trip, and the outcome is
        expanded back to per-granule results/failures — callers (cache
        fills, failure policies) see exactly the shape :meth:`run` gives.
        """
        outcome = self.run(coalesce_by_endpoint(requests))
        return expand_outcome(outcome, self.metrics)

    def run_sharded(
        self,
        requests: Iterable[ScanRequest],
        plan: ShardPlan,
        preloaded: Optional[Dict[ScanRequest, Any]] = None,
        coalesce: bool = False,
    ) -> ShardedOutcome:
        """Scatter each logical request across *plan*'s shards and merge.

        *preloaded* carries per-shard values already known (warm cache
        entries); only the rest are fanned out — through the same retry
        / breaker / timeout machinery as any scan.  With *coalesce*, the
        pending shard requests are batched per shard endpoint first (all
        of one shard's granules in one round-trip).  The merge dedups by
        OID, and absent slices are reported per logical request and
        recorded in the metrics' missing-shard histogram.
        """
        groups = split_requests(requests, plan)
        known: Dict[ScanRequest, Any] = dict(preloaded or {})
        pending = [
            shard_request
            for shard_requests in groups.values()
            for shard_request in shard_requests
            if shard_request not in known
        ]
        outcome = (self.run_coalesced if coalesce else self.run)(pending)
        known.update(outcome.results)
        merged = merge_outcome(groups, known, outcome.failures)
        for endpoint in merged.missing_endpoints:
            self.metrics.record("missing_shards", endpoint)
        return merged


class FederationExecutor(ScanExecutor):
    """Drive the failure model on threads: a helper thread per deadline,
    and a pool for the fan-out when the transport waits or a deadline
    is set.

    *transport* is an :class:`~repro.runtime.transport.AgentTransport`.
    When its :attr:`~repro.runtime.transport.AgentTransport.waits` is
    False (in-process scans) and the policy sets no ``timeout``, a
    fan-out runs its requests one after the other on the calling
    thread: there is no wait for threads to overlap, only computation
    for them to contend over.  A deadline keeps the pool, so the
    deadlines of a fan-out run together rather than adding up.
    """

    def _attempt(self, request: Scannable) -> AttemptLoop:
        loop = AttemptLoop(self, request)
        while loop.admit():
            try:
                value = _call_with_timeout(
                    lambda: self.transport.perform(request), self.policy.timeout, loop.endpoint
                )
            except BaseException as error:
                backoff = loop.failed(error)
                if backoff is not None:
                    self._sleep(backoff)
            else:
                loop.succeeded(value)
        return loop

    def _attempt_all(self, requests: List[Scannable]) -> List[AttemptLoop]:
        workers = min(self.policy.max_workers, len(requests))
        if workers <= 1 or (not self.transport.waits and self.policy.timeout is None):
            return [self._attempt(request) for request in requests]
        with ThreadPoolExecutor(max_workers=workers, thread_name_prefix="fsm-scan") as pool:
            return list(pool.map(self._attempt, requests))
