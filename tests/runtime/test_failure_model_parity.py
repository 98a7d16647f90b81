"""Threaded ≡ async: one table of fault scripts through both engines.

Every row drives the threaded and the asyncio executor with the same
:class:`FaultProfile` script, breaker settings and (injected) breaker
clock, then checks that both engines report the same failure-model
counters and the same ``(kind, attempts)`` failure list — and that both
match the row's expected account.  The last rows pin three defects the
two engines once shared: a breaker tripping mid-retry misreported the
failure, and a half-open probe ending in a non-retryable error kept its
slot.  Two more pin how planner selections meet the fault model: a
narrowed scan and a full one are different requests with separate
scripts, and a query constant that cannot be hashed is never pushed,
so its scan stays an ordinary request inside the failure model.
"""

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

import pytest

from repro.federation import FSM, FSMAgent
from repro.federation.query import FederatedQuery
from repro.model import ClassDef, ObjectDatabase, Schema
from repro.runtime import (
    AsyncFederationExecutor,
    AsyncInProcessTransport,
    AsyncSimulatedNetworkTransport,
    CircuitBreaker,
    FaultProfile,
    FederationExecutor,
    InProcessTransport,
    RuntimeMetrics,
    RuntimePolicy,
    ScanRequest,
    SimulatedNetworkTransport,
    plan_query,
)

ENGINES = ("threaded", "async")

#: the failure-model counters both engines must agree on
COUNTERS = (
    "retries",
    "timeouts",
    "transport_failures",
    "breaker_trips",
    "circuit_rejections",
    "round_trips",
    "agent_scans",
    "lost_granules",
)

EXTENT = ScanRequest("a1", "S1", "person")
FULL = ScanRequest("a1", "S1", "person", "extent")
OTHER = ScanRequest("a2", "S2", "person")
#: routed to an agent nobody registered: the in-process hop raises
#: RegistrationError, a ReproError the breaker must not count
GHOST = ScanRequest("ghost", "S1", "person")


def _agents():
    agents = {}
    for index in (1, 2):
        schema = Schema(f"S{index}")
        schema.add_class(ClassDef("person").attr("ssn#"))
        database = ObjectDatabase(schema, agent=f"h{index}")
        database.insert("person", {"ssn#": f"S{index}-0"})
        agent = FSMAgent(f"a{index}")
        agent.host_object_database(database)
        agents[agent.name] = agent
    return agents


def _planned_scan(constant) -> ScanRequest:
    """The S1 scan the planner sends for ``person(ssn#=constant)`` on a
    cache-off runtime over the harness's two agents."""
    fsm = FSM()
    for agent in _agents().values():
        fsm.register_agent(agent)
    fsm.declare(
        "assertion S1.person == S2.person\n"
        "  attr S1.person.ssn# == S2.person.ssn#\nend"
    )
    fsm.integrate_all()
    plan = plan_query(
        fsm.integrated,
        FederatedQuery("person", (("ssn#", constant),)),
        schemas={name: fsm.database(name).schema for name in ("S1", "S2")},
        mappings=fsm.mappings,
    )
    return dataclasses.replace(EXTENT, where=plan.selections.get(("S1", "person"), ()))


#: a selection the planner pushed: part of request identity
NARROWED = _planned_scan("S1-0")
#: a constant that cannot be hashed (a list) is never pushed, so the
#: planner's scan is the plain one and hashes like any other request
UNPUSHED = _planned_scan(["S1-0"])


class Harness:
    """One engine wired to a simulated network and a clock-driven breaker."""

    def __init__(self, engine: str, row: "Row") -> None:
        self.clock = [0.0]
        breaker = CircuitBreaker(
            row.policy.breaker_threshold,
            row.policy.breaker_reset,
            clock=lambda: self.clock[0],
        )
        self.metrics = RuntimeMetrics()
        agents = _agents()
        if engine == "threaded":
            self.transport = SimulatedNetworkTransport(InProcessTransport(agents))
            self.executor = FederationExecutor(
                self.transport, row.policy, self.metrics, breaker, sleep=lambda _s: None
            )
        else:
            async def no_sleep(_seconds):
                return None

            self.transport = AsyncSimulatedNetworkTransport(AsyncInProcessTransport(agents))
            self.executor = AsyncFederationExecutor(
                self.transport, row.policy, self.metrics, breaker, sleep=no_sleep
            )
        for endpoint, profile in row.profiles.items():
            self.transport.set_profile(endpoint, profile)
        self.failures = []

    def run(self, *requests):
        outcome = self.executor.run(requests)
        self.failures.extend(outcome.failures)
        return outcome

    def run_coalesced(self, *requests):
        outcome = self.executor.run_coalesced(requests)
        self.failures.extend(outcome.failures)
        return outcome

    def advance(self, seconds: float) -> None:
        self.clock[0] += seconds

    def account(self) -> Tuple[Dict[str, int], List[Tuple[str, int]]]:
        stats = self.metrics.snapshot()
        counters = {name: stats.counter(name) for name in COUNTERS}
        return counters, [(failure.kind, failure.attempts) for failure in self.failures]

    def close(self) -> None:
        closer = getattr(self.executor, "close", None)
        if closer is not None:
            closer()


@dataclasses.dataclass
class Row:
    name: str
    policy: RuntimePolicy
    profiles: Dict[str, FaultProfile]
    steps: Callable[[Harness], None]
    #: expected nonzero counters (every other COUNTERS entry must be 0)
    counters: Dict[str, int]
    failures: List[Tuple[str, int]]
    #: text every failure message must carry, when set
    message: Optional[str] = None


def _policy(**overrides) -> RuntimePolicy:
    settings = dict(backoff_base=0.0, backoff_max=0.0, breaker_reset=10.0)
    settings.update(overrides)
    return RuntimePolicy(**settings)


def _runs(*requests, times: int = 1) -> Callable[[Harness], None]:
    def steps(harness: Harness) -> None:
        for _ in range(times):
            harness.run(*requests)

    return steps


def _trip_wait_retry(request, probes: int = 1) -> Callable[[Harness], None]:
    """Fail once (tripping a threshold-1 breaker), wait out the reset
    window, then send *probes* more scans."""

    def steps(harness: Harness) -> None:
        harness.run(request)
        harness.advance(11.0)
        for _ in range(probes):
            harness.run(request)

    return steps


def _probe_success(harness: Harness) -> None:
    harness.run(EXTENT)  # trips the breaker
    harness.run(EXTENT)  # fast-fails while open
    harness.advance(11.0)
    harness.run(EXTENT)  # the half-open probe succeeds


ROWS = [
    Row(
        "flaky_then_ok",
        _policy(max_retries=2),
        {"a1": FaultProfile(fail_times=2)},
        _runs(EXTENT),
        {"retries": 2, "transport_failures": 2, "round_trips": 3, "agent_scans": 3},
        [],
    ),
    Row(
        "persistent_failure_trips_breaker",
        _policy(max_retries=0, breaker_threshold=2),
        {"a1": FaultProfile(fail_times=100)},
        _runs(EXTENT, times=3),
        {
            "transport_failures": 2,
            "breaker_trips": 1,
            "circuit_rejections": 1,
            "round_trips": 2,
            "agent_scans": 2,
        },
        [("transport", 1), ("transport", 1), ("circuit_open", 0)],
    ),
    Row(
        "timeout",
        _policy(max_retries=1, timeout=0.02),
        {"a1": FaultProfile(latency=0.3)},
        _runs(EXTENT),
        {"retries": 1, "timeouts": 2, "round_trips": 2, "agent_scans": 2},
        [("timeout", 2)],
    ),
    Row(
        "half_open_probe_success",
        _policy(max_retries=0, breaker_threshold=1),
        {"a1": FaultProfile(fail_times=1)},
        _probe_success,
        {
            "transport_failures": 1,
            "breaker_trips": 1,
            "circuit_rejections": 1,
            "round_trips": 2,
            "agent_scans": 2,
        },
        [("transport", 1), ("circuit_open", 0)],
    ),
    Row(
        "half_open_probe_failure",
        _policy(max_retries=0, breaker_threshold=1),
        {"a1": FaultProfile(fail_times=100)},
        _trip_wait_retry(EXTENT, probes=2),
        {
            "transport_failures": 2,
            "breaker_trips": 1,
            "circuit_rejections": 1,
            "round_trips": 2,
            "agent_scans": 2,
        },
        [("transport", 1), ("transport", 1), ("circuit_open", 0)],
    ),
    Row(
        "coalesced_batch",
        _policy(max_retries=1),
        {"a1": FaultProfile(fail_times=100)},
        lambda harness: harness.run_coalesced(EXTENT, FULL, OTHER),
        {
            "retries": 1,
            "transport_failures": 2,
            "round_trips": 3,
            "agent_scans": 5,
            "lost_granules": 2,
        },
        [("transport", 2), ("transport", 2)],
    ),
    Row(
        "breaker_trips_mid_retry",
        _policy(max_retries=3, breaker_threshold=2),
        {"a1": FaultProfile(fail_times=100)},
        _runs(EXTENT),
        {
            "retries": 2,
            "transport_failures": 2,
            "breaker_trips": 1,
            "circuit_rejections": 1,
            "round_trips": 2,
            "agent_scans": 2,
        },
        # two dispatches were made, and the message keeps their error
        [("circuit_open", 2)],
        message="injected failure 2/100",
    ),
    Row(
        "probe_released_after_non_retryable_error",
        _policy(max_retries=0, breaker_threshold=1),
        {"ghost": FaultProfile(fail_times=1)},
        # the probe dies on RegistrationError; the next caller may probe
        # at once instead of waiting out the probe lease
        _trip_wait_retry(GHOST, probes=2),
        {"transport_failures": 1, "breaker_trips": 1, "round_trips": 3, "agent_scans": 3},
        [("transport", 1), ("error", 1), ("error", 1)],
    ),
    Row(
        "narrowed_and_plain_scans_keep_separate_scripts",
        _policy(max_retries=0),
        {"a1": FaultProfile(fail_times=1)},
        lambda harness: (harness.run(NARROWED), harness.run(EXTENT)),
        {"transport_failures": 2, "round_trips": 2, "agent_scans": 2},
        [("transport", 1), ("transport", 1)],
    ),
    Row(
        "unhashable_constant_stays_inside_the_failure_model",
        _policy(max_retries=1),
        {"a1": FaultProfile(fail_times=1)},
        _runs(UNPUSHED),
        {"retries": 1, "transport_failures": 1, "round_trips": 2, "agent_scans": 2},
        [],
    ),
]


def _drive(engine: str, row: Row):
    harness = Harness(engine, row)
    try:
        row.steps(harness)
        counters, failures = harness.account()
        messages = [failure.error for failure in harness.failures]
    finally:
        harness.close()
    return counters, failures, messages


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_threaded_and_async_engines_give_one_account(row):
    threaded = _drive("threaded", row)
    concurrent = _drive("async", row)
    assert threaded[:2] == concurrent[:2]
    counters, failures, messages = threaded
    expected = {name: row.counters.get(name, 0) for name in COUNTERS}
    assert counters == expected
    assert failures == row.failures
    if row.message is not None:
        for engine_messages in (threaded[2], concurrent[2]):
            assert all(row.message in message for message in engine_messages)


def test_planner_requests_are_what_the_rows_assume():
    assert NARROWED.where == (("ssn#", "S1-0"),)
    assert NARROWED != EXTENT and NARROWED.cache_key != EXTENT.cache_key
    assert UNPUSHED == EXTENT


@pytest.mark.parametrize("engine", ENGINES)
def test_run_one_raises_the_circuit_error_with_its_cause(engine):
    """The synchronous API raises what the fan-out classifies."""
    from repro.errors import CircuitOpenError

    row = ROWS[[r.name for r in ROWS].index("breaker_trips_mid_retry")]
    harness = Harness(engine, row)
    try:
        with pytest.raises(CircuitOpenError, match="injected failure 2/100"):
            harness.executor.run_one(EXTENT)
    finally:
        harness.close()
