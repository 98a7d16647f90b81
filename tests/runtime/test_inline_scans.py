"""In-process scans run on the calling thread; waiting scans fan out.

A thread pool pays where a scan waits — on a network, on a remote
agent — because the threads overlap the waits.  An in-process scan only
computes, so the threaded executor runs it inline: the transport's
``waits`` attribute decides, and every scan still goes through the one
failure model (retry, backoff, breaker, timeout, classification).
"""

import threading
import time

import pytest

from repro.federation import FSMAgent
from repro.model import ClassDef, ObjectDatabase, Schema
from repro.runtime import (
    AgentTransport,
    FaultProfile,
    FederationExecutor,
    InProcessTransport,
    RuntimePolicy,
    ScanRequest,
    ShardPlan,
    SimulatedNetworkTransport,
)

from .conftest import build_cluster_fsm
from .test_failure_model_parity import (
    COUNTERS,
    EXTENT,
    FULL,
    OTHER,
    ROWS,
    Harness,
    Row,
    _agents,
    _policy,
)

QUERY = "person0() -> ssn#"


def _scan_threads():
    return [
        thread.name for thread in threading.enumerate() if thread.name.startswith("fsm-scan")
    ]


class _RecordingTransport(InProcessTransport):
    """Records the thread of every ``perform`` and the pool threads alive then."""

    def __init__(self, *args):
        super().__init__(*args)
        self.threads = []
        self.pool_threads = []

    def perform(self, request):
        self.threads.append(threading.get_ident())
        self.pool_threads.extend(_scan_threads())
        return super().perform(request)


def test_a_sharded_in_process_fan_out_runs_on_the_calling_thread():
    fsm = build_cluster_fsm()
    expected = sorted(map(repr, fsm.query(QUERY)))
    transport = _RecordingTransport(fsm._agents, fsm._schema_host)
    runtime = fsm.use_runtime(
        RuntimePolicy(max_workers=8, cache_enabled=False),
        transport=transport,
        shard_plan=ShardPlan(4),
    )
    try:
        rows = fsm.query(QUERY)
    finally:
        runtime.close()
    assert sorted(map(repr, rows)) == expected
    # 4 agents x 4 shards: a fan-out wide enough for the pool
    assert len(transport.threads) >= 8
    assert set(transport.threads) == {threading.get_ident()}
    assert transport.pool_threads == []


def test_an_unplanned_executor_fan_out_stays_inline():
    transport = _RecordingTransport(_agents())
    executor = FederationExecutor(transport, RuntimePolicy(max_workers=8))
    outcome = executor.run_sharded([EXTENT, OTHER], ShardPlan(8))
    assert not outcome.partial
    assert len(transport.threads) == 16
    assert set(transport.threads) == {threading.get_ident()}
    assert transport.pool_threads == []


LATENCY = 0.05


def _slow_agents(count):
    agents = {}
    for index in range(count):
        schema = Schema(f"W{index}")
        schema.add_class(ClassDef("person").attr("ssn#"))
        database = ObjectDatabase(schema, agent=f"h{index}")
        database.insert("person", {"ssn#": str(index)})
        agent = FSMAgent(f"w{index}")
        agent.host_object_database(database)
        agents[agent.name] = agent
    return agents


class _TimedNetwork(SimulatedNetworkTransport):
    """Records when every ``perform`` starts, and its ``(start, end)``
    wall-clock interval once it returns."""

    def __init__(self, *args):
        super().__init__(*args)
        self.starts = []
        self.intervals = []

    def perform(self, request):
        started = time.perf_counter()
        self.starts.append(started)
        try:
            return super().perform(request)
        finally:
            self.intervals.append((started, time.perf_counter()))


def _overlap(intervals):
    """Do all the intervals share one instant?"""
    return max(start for start, _ in intervals) < min(end for _, end in intervals)


def _waiting_requests(count):
    return [ScanRequest(f"w{index}", f"W{index}", "person") for index in range(count)]


def test_a_waiting_transport_still_overlaps_its_waits():
    transport = _TimedNetwork(InProcessTransport(_slow_agents(4)), FaultProfile(latency=LATENCY))
    assert transport.waits
    executor = FederationExecutor(transport, RuntimePolicy(max_workers=8))
    outcome = executor.run(_waiting_requests(4))
    assert not outcome.partial and len(outcome.results) == 4
    assert len(transport.intervals) == 4
    # inline, each wait would start after the one before it ended
    assert _overlap(transport.intervals)


class _OverdueInProcess(_TimedNetwork):
    """In-process scans (``waits`` is False) that overrun any deadline."""

    waits = False


def test_in_process_deadlines_run_together():
    """With a ``timeout`` an in-process fan-out keeps the pool, so the
    deadlines of its overdue scans run side by side instead of adding up."""
    transport = _OverdueInProcess(
        InProcessTransport(_slow_agents(4)), FaultProfile(latency=4 * LATENCY)
    )
    executor = FederationExecutor(
        transport, RuntimePolicy(max_workers=8, timeout=LATENCY, max_retries=0)
    )
    outcome = executor.run(_waiting_requests(4))
    assert outcome.partial and outcome.results == {}
    assert [failure.kind for failure in outcome.failures] == ["timeout"] * 4
    assert len(transport.starts) == 4
    # inline, each deadline would open only when the one before it
    # expired, so no two of them would share an instant
    assert _overlap([(start, start + LATENCY) for start in transport.starts])


class _PlainTransport(AgentTransport):
    """A third-party transport that says nothing about waiting."""

    def __init__(self, inner):
        self._inner = inner
        self.thread_names = []

    def perform(self, request):
        self.thread_names.append(threading.current_thread().name)
        return self._inner.perform(request)


def test_a_transport_that_does_not_say_fans_out_on_threads():
    transport = _PlainTransport(InProcessTransport(_agents()))
    assert transport.waits
    executor = FederationExecutor(transport, RuntimePolicy(max_workers=8))
    outcome = executor.run([EXTENT, FULL, OTHER])
    assert not outcome.partial
    assert len(transport.thread_names) == 3
    assert all(name.startswith("fsm-scan") for name in transport.thread_names)


class _InlineFaults(SimulatedNetworkTransport):
    """The simulated network's fault model on a transport that does not
    wait, so the threaded executor runs its scans inline."""

    waits = False

    def __init__(self, inner):
        super().__init__(inner)
        self.threads = []
        self.pool_threads = []

    def perform(self, request):
        self.threads.append(threading.get_ident())
        self.pool_threads.extend(_scan_threads())
        return super().perform(request)


def _inline_harness(row):
    harness = Harness("threaded", row)
    inline = _InlineFaults(InProcessTransport(_agents()))
    for endpoint, profile in row.profiles.items():
        inline.set_profile(endpoint, profile)
    harness.transport = harness.executor.transport = inline
    return harness


def _account(harness, row):
    try:
        row.steps(harness)
        return harness.account()
    finally:
        harness.close()


#: fan-outs of several requests, where inline and pooled runs differ in
#: how they are driven but must give one account
FAN_OUT_ROWS = [
    Row(
        "fan_out_with_a_flaky_agent",
        _policy(max_retries=2, max_workers=8),
        {"a1": FaultProfile(fail_times=1)},
        lambda harness: harness.run(EXTENT, FULL, OTHER),
        {"retries": 2, "transport_failures": 2, "round_trips": 5, "agent_scans": 5},
        [],
    ),
    Row(
        "fan_out_trips_one_breaker",
        _policy(max_retries=0, breaker_threshold=1, max_workers=8),
        {"a2": FaultProfile(fail_times=100)},
        lambda harness: (harness.run(EXTENT, OTHER), harness.run(FULL, OTHER)),
        {
            "transport_failures": 1,
            "breaker_trips": 1,
            "circuit_rejections": 1,
            "round_trips": 3,
            "agent_scans": 3,
        },
        [("transport", 1), ("circuit_open", 0)],
    ),
    Row(
        "fan_out_with_a_timeout",
        _policy(max_retries=0, timeout=0.02, max_workers=8),
        {"a1": FaultProfile(latency=0.3)},
        lambda harness: harness.run(EXTENT, OTHER),
        {"timeouts": 1, "round_trips": 2, "agent_scans": 2},
        [("timeout", 1)],
    ),
]


@pytest.mark.parametrize("row", ROWS + FAN_OUT_ROWS, ids=lambda row: row.name)
def test_inline_scans_give_the_failure_model_account(row):
    harness = _inline_harness(row)
    inline = _account(harness, row)
    if row.policy.timeout is None:
        assert harness.transport.pool_threads == []
        assert set(harness.transport.threads) == {threading.get_ident()}
    pooled = _account(Harness("threaded", row), row)
    assert inline == pooled
    counters, failures = inline
    assert counters == {name: row.counters.get(name, 0) for name in COUNTERS}
    assert failures == row.failures
