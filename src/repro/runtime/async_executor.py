"""The asyncio driver of the failure model: multiplex scans on one loop.

:class:`~repro.runtime.executor.FederationExecutor` spends an OS thread
per in-flight scan, so its fan-out width is bounded by the pool; 256
slow agents behind 10ms links cost ``256 / max_workers`` round-trip
waves.  :class:`AsyncFederationExecutor` steps the very same
:class:`~repro.runtime.executor.AttemptLoop` as coroutines — an
awaiting scan costs a timer, not a thread.  There is one failure model
and two drivers, so retries, backoff, breaker transitions, counters and
failure classification cannot drift between modes; a
:class:`~repro.runtime.breaker.CircuitBreaker` instance may even be
shared with a threaded executor (its lock never crosses an ``await``).
What this driver adds is only its calling convention:

* per-call deadlines use :func:`asyncio.timeout` (``asyncio.wait_for``
  before 3.11): an overdue scan's coroutine is **cancelled**, not
  abandoned — the transport sees the cancellation, and the attempt is
  recorded as a timeout, never a success;
* an externally cancelled attempt releases a half-open probe slot
  before the cancellation propagates;
* fan-out width is a semaphore (``policy.max_inflight``), so admitting
  thousands of scans costs no OS resources.

The executor exposes both coroutine (:meth:`run_async`,
:meth:`run_one_async`) and synchronous (:meth:`run`, :meth:`run_one`,
plus the shared coalesced and sharded shapes) APIs.  The sync bridge
submits to a lazily-started daemon event-loop thread, so the
synchronous FSM query paths use the async mode without any caller
becoming async themselves.  Do not call the sync API from a coroutine
running on that same loop.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Awaitable, Callable, Iterable, List, Optional

from ..errors import AgentTimeoutError
from .async_transport import AsyncAgentTransport
from .breaker import CircuitBreaker
from .executor import AttemptLoop, ScanExecutor, ScanOutcome
from .metrics import RuntimeMetrics
from .policy import RuntimePolicy
from .transport import Scannable

#: asyncio.timeout landed in 3.11; 3.10 falls back to wait_for
_TIMEOUT_FACTORY = getattr(asyncio, "timeout", None)


async def _with_deadline(
    awaitable: Awaitable[Any], seconds: Optional[float], agent: str
) -> Any:
    """Await *awaitable*, cancelling it past *seconds* (None: no deadline)."""
    try:
        if seconds is None:
            return await awaitable
        if _TIMEOUT_FACTORY is not None:
            async with _TIMEOUT_FACTORY(seconds):
                return await awaitable
        return await asyncio.wait_for(awaitable, seconds)
    except (asyncio.TimeoutError, TimeoutError):
        raise AgentTimeoutError(agent, seconds or 0.0) from None


class EventLoopThread:
    """A lazily-started daemon thread running one event loop forever.

    The synchronous facade submits coroutines with
    :func:`asyncio.run_coroutine_threadsafe` and blocks on the future —
    the standard sync-over-async bridge.  Restartable: if the thread
    died (interpreter teardown races in tests), the next submit starts
    a fresh loop.

    One instance may be *shared* by many executors: the federation
    service hands every tenant's :class:`AsyncFederationExecutor` the
    same loop thread, so all tenants' in-flight scans multiplex on one
    event loop instead of one loop thread per tenant.  Pass it as the
    executor's ``runner``; a shared runner is closed by its owner, not
    by the executors borrowing it.
    """

    def __init__(self, name: str = "fsm-async-loop") -> None:
        self._name = name
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    def _ensure(self) -> asyncio.AbstractEventLoop:
        with self._lock:
            if (
                self._loop is None
                or self._thread is None
                or not self._thread.is_alive()
            ):
                loop = asyncio.new_event_loop()
                thread = threading.Thread(
                    target=self._drive, args=(loop,), name=self._name, daemon=True
                )
                thread.start()
                self._loop, self._thread = loop, thread
            return self._loop

    @staticmethod
    def _drive(loop: asyncio.AbstractEventLoop) -> None:
        asyncio.set_event_loop(loop)
        loop.run_forever()

    def submit(self, coroutine: Awaitable[Any]) -> Any:
        """Run *coroutine* on the loop thread and return its result."""
        return asyncio.run_coroutine_threadsafe(
            coroutine, self._ensure()  # type: ignore[arg-type]
        ).result()

    @property
    def alive(self) -> bool:
        """True while the loop thread is running (False before first use)."""
        with self._lock:
            return self._thread is not None and self._thread.is_alive()

    def close(self) -> None:
        with self._lock:
            loop, thread = self._loop, self._thread
            self._loop = self._thread = None
        if loop is None or thread is None:
            return
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5.0)
        loop.close()


class AsyncFederationExecutor(ScanExecutor):
    """Drive the failure model as coroutines on one event loop."""

    def __init__(
        self,
        transport: AsyncAgentTransport,
        policy: Optional[RuntimePolicy] = None,
        metrics: Optional[RuntimeMetrics] = None,
        breaker: Optional[CircuitBreaker] = None,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
        runner: Optional[EventLoopThread] = None,
    ) -> None:
        super().__init__(transport, policy, metrics, breaker, sleep)
        # a caller-supplied runner is *borrowed* (many executors can
        # multiplex on one loop thread); only a private one is closed here
        self._runner = runner if runner is not None else EventLoopThread()
        self._owns_runner = runner is None

    # ------------------------------------------------------------------
    # the driver
    # ------------------------------------------------------------------
    async def _attempt_async(self, request: Scannable) -> AttemptLoop:
        loop = AttemptLoop(self, request)
        while loop.admit():
            try:
                value = await _with_deadline(
                    self.transport.perform(request), self.policy.timeout, loop.endpoint
                )
            except BaseException as error:
                # cancellation (shutdown, caller deadline) re-raises from
                # here after releasing a half-open probe slot
                backoff = loop.failed(error)
                if backoff is not None:
                    await self._sleep(backoff)
            else:
                loop.succeeded(value)
        return loop

    async def _attempt_all_async(self, requests: List[Scannable]) -> List[AttemptLoop]:
        gate = asyncio.Semaphore(self.policy.max_inflight)

        async def gated(request: Scannable) -> AttemptLoop:
            async with gate:
                return await self._attempt_async(request)

        return list(await asyncio.gather(*(gated(request) for request in requests)))

    # ------------------------------------------------------------------
    # coroutine API
    # ------------------------------------------------------------------
    async def run_one_async(self, request: Scannable) -> Any:
        """One dispatch through the retry / breaker / deadline machinery."""
        return (await self._attempt_async(request)).result()

    async def run_async(self, requests: Iterable[Scannable]) -> ScanOutcome:
        """Fan *requests* out concurrently; never raises per-scan failures."""
        return self._outcome(await self._attempt_all_async(list(requests)))

    # ------------------------------------------------------------------
    # synchronous bridge (what FederationRuntime calls in async mode)
    # ------------------------------------------------------------------
    def _attempt(self, request: Scannable) -> AttemptLoop:
        return self._runner.submit(self._attempt_async(request))

    def _attempt_all(self, requests: List[Scannable]) -> List[AttemptLoop]:
        return self._runner.submit(self._attempt_all_async(requests))

    def close(self) -> None:
        """Stop the bridge's event-loop thread (idempotent).

        A shared (caller-supplied) runner is left running — its owner
        closes it."""
        if self._owns_runner:
            self._runner.close()
