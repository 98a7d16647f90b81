"""Asyncio agent transports: coroutine-shaped access to FSM-agents.

The threaded executor needs one OS thread per in-flight scan; to
multiplex thousands of slow agents from one process the transport layer
must *suspend* instead of *block*.  :class:`AsyncAgentTransport` is the
protocol of :class:`~repro.runtime.transport.AgentTransport` with an
``async`` ``perform``; both share the synchronous
:class:`~repro.runtime.transport.ControlPlane` (agent lookup,
generations, delta feeds).

Three implementations ship:

* :class:`AsyncInProcessTransport` — direct calls against registered
  agents (extent scans are CPU-bound and fast; no suspension needed);
* :class:`AsyncSimulatedNetworkTransport` — the one
  :class:`~repro.runtime.transport.FaultInjector` (profiles, scripted
  attempts, jitter and drop rolls) with its delays awaited through
  ``asyncio.sleep`` — 256 sleeping agents cost 256 timers, not 256
  threads;
* :class:`AsyncTransportAdapter` — lifts any synchronous transport into
  the async protocol (its ``perform`` must not block the loop; wrap
  latency simulation with :class:`AsyncSimulatedNetworkTransport`
  instead of the thread-sleeping simulator).

Control-plane calls are forwarded by the shared
:class:`~repro.runtime.transport.DelegatingTransport` base.
"""

from __future__ import annotations

import asyncio
from collections import defaultdict
from typing import Any, Dict, Mapping, Optional

from ..federation.agent import FSMAgent
from .transport import (
    ControlPlane,
    DelegatingTransport,
    FaultInjector,
    FaultProfile,
    InProcessTransport,
    Scannable,
)


class AsyncAgentTransport(ControlPlane):
    """Protocol: route :class:`ScanRequest`\\ s to agents as coroutines."""

    async def perform(self, request: Scannable) -> Any:
        """Execute the scan (or coalesced batch) and return its raw value."""
        raise NotImplementedError


class AsyncTransportAdapter(DelegatingTransport, AsyncAgentTransport):
    """Lift a synchronous :class:`AgentTransport` into the async protocol.

    The wrapped ``perform`` runs inline on the event loop — correct for
    in-process scans, wrong for anything that blocks (a
    :class:`~repro.runtime.transport.SimulatedNetworkTransport` with
    latency would stall every other coroutine; use
    :class:`AsyncSimulatedNetworkTransport` for fault injection).
    """

    async def perform(self, request: Scannable) -> Any:
        return self._inner.perform(request)


class AsyncInProcessTransport(AsyncTransportAdapter):
    """Direct coroutine calls against live :class:`FSMAgent` objects."""

    def __init__(
        self,
        agents: Mapping[str, FSMAgent],
        schema_host: Optional[Mapping[str, str]] = None,
    ) -> None:
        super().__init__(InProcessTransport(agents, schema_host))


class AsyncSimulatedNetworkTransport(FaultInjector, AsyncAgentTransport):
    """Fault injection for the asyncio path: latency without threads.

    The fault model is the threaded simulator's own
    :class:`~repro.runtime.transport.FaultInjector`; only the wait
    differs — ``await asyncio.sleep``, so a fleet of slow agents shares
    one event loop.  Cancellation is first-class: a coroutine cancelled
    mid-flight (deadline, shutdown) is counted in :attr:`cancelled` and
    never in :attr:`completed`, which the cancellation tests use to
    prove overdue scans really die.
    """

    def __init__(
        self,
        inner: AsyncAgentTransport,
        default_profile: Optional[FaultProfile] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(inner, default_profile, seed)
        #: calls whose coroutine was cancelled mid-flight, per agent
        self.cancelled: Dict[str, int] = defaultdict(int)
        #: calls that ran to a successful return (faulted calls are the
        #: remainder: ``calls - completed - cancelled``)
        self.completed: Dict[str, int] = defaultdict(int)

    async def perform(self, request: Scannable) -> Any:
        endpoint = request.endpoint
        profile, delay, fault = self._roll(request)
        try:
            if delay > 0.0:
                await asyncio.sleep(delay)
            if fault is not None:
                raise fault
            value = await self._inner.perform(request)
            transfer = self._transfer_delay(profile, value)
            if transfer > 0.0:
                await asyncio.sleep(transfer)
        except asyncio.CancelledError:
            with self._lock:
                self.cancelled[endpoint] += 1
            raise
        with self._lock:
            self.completed[endpoint] += 1
        return value
