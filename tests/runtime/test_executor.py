"""The concurrent executor: retries, timeouts, circuit breakers, fan-out."""

import pytest

from repro.errors import AgentTimeoutError, CircuitOpenError, TransportError
from repro.federation import FSMAgent
from repro.model import ClassDef, ObjectDatabase, Schema
from repro.runtime import (
    CircuitBreaker,
    FaultProfile,
    FederationExecutor,
    InProcessTransport,
    OPEN,
    RuntimeMetrics,
    RuntimePolicy,
    ScanRequest,
    SimulatedNetworkTransport,
)


def _one_agent():
    schema = Schema("S1")
    schema.add_class(ClassDef("person").attr("ssn#"))
    database = ObjectDatabase(schema, agent="h1")
    database.insert("person", {"ssn#": "1"})
    agent = FSMAgent("a1")
    agent.host_object_database(database)
    return {"a1": agent}


def _executor(profile=None, policy=None, breaker=None, metrics=None):
    transport = InProcessTransport(_one_agent())
    if profile is not None:
        simulated = SimulatedNetworkTransport(transport)
        simulated.set_profile("a1", profile)
        transport = simulated
    metrics = metrics or RuntimeMetrics()
    return (
        FederationExecutor(
            transport,
            policy or RuntimePolicy(backoff_base=0.0, backoff_max=0.0),
            metrics,
            breaker,
            sleep=lambda _t: None,
        ),
        metrics,
    )


REQUEST = ScanRequest("a1", "S1", "person")


class TestRetries:
    def test_flaky_agent_succeeds_within_budget(self):
        executor, metrics = _executor(
            FaultProfile(fail_times=2),
            RuntimePolicy(max_retries=2, backoff_base=0.0),
        )
        extent = executor.run_one(REQUEST)
        assert len(extent) == 1
        stats = metrics.snapshot()
        assert stats.counter("retries") == 2
        assert stats.counter("transport_failures") == 2
        assert stats.counter("agent_scans") == 3

    def test_exhausted_retries_raise_last_error(self):
        executor, metrics = _executor(
            FaultProfile(fail_times=10),
            RuntimePolicy(max_retries=1, backoff_base=0.0),
        )
        with pytest.raises(TransportError, match="injected failure"):
            executor.run_one(REQUEST)
        assert metrics.snapshot().counter("retries") == 1

    def test_backoff_schedule_is_exponential(self):
        naps = []
        transport = SimulatedNetworkTransport(InProcessTransport(_one_agent()))
        transport.set_profile("a1", FaultProfile(fail_times=3))
        executor = FederationExecutor(
            transport,
            RuntimePolicy(
                max_retries=3,
                backoff_base=0.01,
                backoff_multiplier=2.0,
                backoff_max=1.0,
            ),
            RuntimeMetrics(),
            sleep=naps.append,
        )
        executor.run_one(REQUEST)
        assert naps == [0.01, 0.02, 0.04]

    def test_backoff_is_capped(self):
        policy = RuntimePolicy(
            backoff_base=0.01, backoff_multiplier=10.0, backoff_max=0.05
        )
        assert policy.backoff(1) == 0.01
        assert policy.backoff(2) == 0.05
        assert policy.backoff(9) == 0.05


class TestTimeouts:
    def test_slow_agent_times_out(self):
        executor, metrics = _executor(
            FaultProfile(latency=0.5),
            RuntimePolicy(timeout=0.02, max_retries=0),
        )
        with pytest.raises(AgentTimeoutError):
            executor.run_one(REQUEST)
        assert metrics.snapshot().counter("timeouts") == 1

    def test_fast_agent_beats_timeout(self):
        executor, _ = _executor(policy=RuntimePolicy(timeout=5.0, max_retries=0))
        assert len(executor.run_one(REQUEST)) == 1


class TestCircuitBreaker:
    def test_trips_after_threshold_and_fast_fails(self):
        breaker = CircuitBreaker(threshold=3, reset_timeout=60.0)
        executor, metrics = _executor(
            FaultProfile(fail_times=100),
            RuntimePolicy(max_retries=0, backoff_base=0.0, breaker_threshold=3),
            breaker=breaker,
        )
        for _ in range(3):
            with pytest.raises(TransportError):
                executor.run_one(REQUEST)
        assert breaker.state("a1") == OPEN
        with pytest.raises(CircuitOpenError):
            executor.run_one(REQUEST)
        stats = metrics.snapshot()
        assert stats.counter("breaker_trips") == 1
        assert stats.counter("circuit_rejections") == 1
        # the fast-fail never reached the agent
        assert stats.counter("agent_scans") == 3

    def test_half_open_probe_recovers(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=2, reset_timeout=10.0, clock=lambda: clock[0]
        )
        transport = SimulatedNetworkTransport(InProcessTransport(_one_agent()))
        transport.set_profile("a1", FaultProfile(fail_times=2))
        executor = FederationExecutor(
            transport,
            RuntimePolicy(max_retries=0, backoff_base=0.0),
            RuntimeMetrics(),
            breaker,
            sleep=lambda _t: None,
        )
        for _ in range(2):
            with pytest.raises(TransportError):
                executor.run_one(REQUEST)
        with pytest.raises(CircuitOpenError):
            executor.run_one(REQUEST)
        clock[0] = 11.0  # past the reset window: one probe is admitted
        assert len(executor.run_one(REQUEST)) == 1
        assert breaker.state("a1") == "closed"

    def test_failed_probe_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            threshold=1, reset_timeout=10.0, clock=lambda: clock[0]
        )
        transport = SimulatedNetworkTransport(InProcessTransport(_one_agent()))
        transport.set_profile("a1", FaultProfile(fail_times=100))
        executor = FederationExecutor(
            transport,
            RuntimePolicy(max_retries=0, backoff_base=0.0),
            RuntimeMetrics(),
            breaker,
            sleep=lambda _t: None,
        )
        with pytest.raises(TransportError):
            executor.run_one(REQUEST)
        clock[0] = 11.0
        with pytest.raises(TransportError):  # the probe itself fails...
            executor.run_one(REQUEST)
        with pytest.raises(CircuitOpenError):  # ...and the circuit re-opens
            executor.run_one(REQUEST)


class TestFanOut:
    def test_collects_successes_and_failures(self):
        executor, _ = _executor(
            FaultProfile(fail_times=100),
            RuntimePolicy(max_retries=0, backoff_base=0.0, max_workers=4),
        )
        good = ScanRequest("a1", "S1", "person", "extent")
        # scripted failures are per request: poison only the extent scan
        executor.transport.reset_scripts()
        executor.transport.set_profile("a1", FaultProfile())
        outcome = executor.run([REQUEST, good])
        assert not outcome.partial
        assert set(outcome.results) == {REQUEST, good}

    def test_partial_outcome_reports_failures(self):
        executor, metrics = _executor(
            FaultProfile(drop_rate=1.0),
            RuntimePolicy(max_retries=0, backoff_base=0.0, max_workers=4),
        )
        outcome = executor.run([REQUEST])
        assert outcome.partial
        assert outcome.results == {}
        [failure] = outcome.failures
        assert failure.kind == "transport"
        assert "dropped" in failure.error
        assert metrics.snapshot().counter("scan_failures") == 1

    def test_empty_fan_out(self):
        executor, _ = _executor()
        outcome = executor.run([])
        assert outcome.results == {} and not outcome.partial
