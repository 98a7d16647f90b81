"""Partial shard failure: exact reporting, policy split, no duplicates.

Fault profiles target single shard endpoints (``agent2#1/3``) behind the
simulated network transports, killing k of N shards while their siblings
stay healthy.  The ERROR policy must refuse; the PARTIAL policy must
serve the surviving slices and name *exactly* the missing shard ids in
``RuntimeStats.missing_shards``; and a shard that succeeds on retry —
after an injected failure or a timed-out first attempt — must never
duplicate a fact in the merged answer.
"""

import asyncio
import threading
import time

import pytest

from repro.errors import PartialResultError
from repro.model.oids import OID
from repro.runtime import (
    AgentTransport,
    AsyncAgentTransport,
    AsyncInProcessTransport,
    FaultProfile,
    FederationRuntime,
    InProcessTransport,
    RuntimePolicy,
    ShardPlan,
    SimulatedNetworkTransport,
)
from repro.runtime.async_transport import AsyncSimulatedNetworkTransport
from repro.workloads import build_memory_databases, generate_source_federation, source_fsm

QUERY = "person0() -> ssn#"
PLAN = ShardPlan(3)
DEAD = ("#1/3", "#2/3")  # shard indexes 1 and 2 of agent2


def _answers(rows):
    return sorted(row["ssn#"] for row in rows)


def _attach(fsm, policy, mode="threaded", per_endpoint=(), plan=PLAN):
    if mode == "async":
        transport = AsyncSimulatedNetworkTransport(
            AsyncInProcessTransport(fsm._agents, fsm._schema_host)
        )
    else:
        transport = SimulatedNetworkTransport(
            InProcessTransport(fsm._agents, fsm._schema_host)
        )
    for endpoint, profile in per_endpoint:
        transport.set_profile(endpoint, profile)
    # planner off: this suite's shard-loss expectations are sized against
    # the unplanned one-granule-per-class traffic (the planner would prune
    # person1 and coalesce shard granules); planned-path fault reporting
    # is covered in test_planner.py / test_planner_parity.py
    runtime = FederationRuntime(
        transport=transport, policy=policy, mode=mode, shard_plan=plan,
        plan=False,
    )
    fsm.use_runtime(runtime=runtime)
    return runtime


def _expected_with_dead_shards(fsm, dead_indexes):
    """Baseline answers minus the S2 facts the dead shards own."""
    healthy = sorted(
        obj.get("ssn#")
        for name in fsm.schema_names()
        for obj in fsm.database(name).direct_extent("person0")
        if not (name == "S2" and PLAN.shard_of(obj.oid) in dead_indexes)
    )
    return healthy


class TestPartialPolicy:
    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_reports_exactly_the_missing_shard_ids(self, cluster_builder, mode):
        fsm = cluster_builder()
        dead = [f"agent2{suffix}" for suffix in DEAD]
        runtime = _attach(
            fsm,
            RuntimePolicy(max_retries=0, backoff_base=0.0, failure_policy="partial"),
            mode=mode,
            per_endpoint=[(name, FaultProfile(drop_rate=1.0)) for name in dead],
        )
        try:
            rows = fsm.query(QUERY)
            assert _answers(rows) == _expected_with_dead_shards(fsm, {1, 2})
            stats = fsm.last_query_stats
            # exactly the killed endpoints, nothing else
            assert set(stats.missing_shards) == set(dead)
            # both person0 and person1 scans of S2 lost those slices
            assert all(count == 2 for count in stats.missing_shards.values())
            assert stats.counter("missing_shards") == 4
            assert stats.counter("partial_results") > 0
            warnings = runtime.drain_warnings()
            assert any("missing shard(s) 1, 2" in w for w in warnings)
        finally:
            runtime.close()

    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_healthy_shards_report_nothing(self, cluster_builder, mode):
        fsm = cluster_builder()
        runtime = _attach(
            fsm, RuntimePolicy(failure_policy="partial"), mode=mode
        )
        try:
            fsm.query(QUERY)
            assert fsm.last_query_stats.missing_shards == {}
            assert fsm.last_query_stats.counter("missing_shards") == 0
        finally:
            runtime.close()


class TestErrorPolicy:
    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_one_dead_shard_refuses_the_query(self, cluster_builder, mode):
        fsm = cluster_builder()
        runtime = _attach(
            fsm,
            RuntimePolicy(max_retries=0, backoff_base=0.0, failure_policy="error"),
            mode=mode,
            per_endpoint=[("agent3#0/3", FaultProfile(drop_rate=1.0))],
        )
        try:
            with pytest.raises(PartialResultError) as excinfo:
                fsm.query(QUERY)
            assert "agent3#0/3" in str(excinfo.value)
        finally:
            runtime.close()


class TestRetryDedup:
    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_flaky_shard_retry_adds_no_duplicates(self, cluster_builder, mode):
        baseline = cluster_builder()
        baseline.use_runtime(RuntimePolicy())
        expected = _answers(baseline.query(QUERY))

        fsm = cluster_builder()
        runtime = _attach(
            fsm,
            RuntimePolicy(max_retries=2, backoff_base=0.0),
            mode=mode,
            per_endpoint=[("agent2#1/3", FaultProfile(fail_times=2))],
        )
        try:
            rows = fsm.query(QUERY)
            # sorted-list equality catches duplicates, not just set parity
            assert _answers(rows) == expected
            assert fsm.last_query_stats.counter("retries") >= 2
            assert fsm.last_query_stats.missing_shards == {}
        finally:
            runtime.close()

    def test_timed_out_shard_retry_adds_no_duplicates_threaded(
        self, cluster_builder
    ):
        baseline = cluster_builder()
        baseline.use_runtime(RuntimePolicy())
        expected = _answers(baseline.query(QUERY))

        fsm = cluster_builder()
        inner = InProcessTransport(fsm._agents, fsm._schema_host)
        slow_once = _SlowFirstAttemptTransport(inner, "agent2#0/3", delay=0.4)
        runtime = FederationRuntime(
            transport=slow_once,
            policy=RuntimePolicy(timeout=0.05, max_retries=1, backoff_base=0.0),
            shard_plan=PLAN,
        )
        fsm.use_runtime(runtime=runtime)
        rows = fsm.query(QUERY)
        assert _answers(rows) == expected
        stats = fsm.last_query_stats
        assert stats.counter("timeouts") >= 1
        assert stats.missing_shards == {}

    def test_timed_out_shard_retry_adds_no_duplicates_async(self, cluster_builder):
        baseline = cluster_builder()
        baseline.use_runtime(RuntimePolicy())
        expected = _answers(baseline.query(QUERY))

        fsm = cluster_builder()
        inner = AsyncInProcessTransport(fsm._agents, fsm._schema_host)
        slow_once = _AsyncSlowFirstAttemptTransport(inner, "agent2#0/3", delay=0.4)
        runtime = FederationRuntime(
            transport=slow_once,
            policy=RuntimePolicy(timeout=0.05, max_retries=1, backoff_base=0.0),
            mode="async",
            shard_plan=PLAN,
        )
        fsm.use_runtime(runtime=runtime)
        try:
            rows = fsm.query(QUERY)
            assert _answers(rows) == expected
            stats = fsm.last_query_stats
            assert stats.counter("timeouts") >= 1
            assert stats.missing_shards == {}
        finally:
            runtime.close()


class TestMalformedRowIsolation:
    """A row that fails §3 coercion fails only the shard that owns it.

    Shard ownership is decided on the tuple number before the row is
    transformed, so sibling shards never coerce the bad row: under
    ``partial`` the answer lacks exactly the owner's slice, under
    ``error`` the query still refuses.
    """

    SOURCE_QUERY = "person() -> ssn, name, level"
    SOURCE_PLAN = ShardPlan(4)
    BAD_NUMBER = 7  # tuple number of the corrupted university person

    def _federation(self, corrupt):
        dataset = generate_source_federation(
            people_per_schema=16, records_per_person=1, seed=5
        )
        if corrupt:
            row = dataset.rows["university"]["person"][self.BAD_NUMBER - 1]
            row["level"] = "not-a-level"  # an INTEGER column: coercion fails
        fsm = source_fsm(build_memory_databases(dataset), dataset.assertions)
        fsm.integrate_all()
        return fsm

    def _owner(self, fsm):
        adapter = fsm.database("university").adapter
        oid = OID(adapter.agent, adapter.system, adapter.name, "person", self.BAD_NUMBER)
        return oid, self.SOURCE_PLAN.shard_of(oid)

    def _attach(self, fsm, failure_policy, mode):
        return fsm.use_runtime(
            RuntimePolicy(
                max_retries=0, backoff_base=0.0, failure_policy=failure_policy
            ),
            mode=mode,
            shard_plan=self.SOURCE_PLAN,
            plan=False,
        )

    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_partial_lacks_exactly_the_owning_shard(self, mode):
        clean = self._federation(corrupt=False)
        fsm = self._federation(corrupt=True)
        _, owner = self._owner(fsm)
        lost = {
            obj.get("ssn")
            for obj in clean.database("university").direct_extent("person")
            if self.SOURCE_PLAN.shard_of(obj.oid) == owner
        }
        expected = sorted(
            row["ssn"] for row in clean.query(self.SOURCE_QUERY)
            if row["ssn"] not in lost
        )
        runtime = self._attach(fsm, "partial", mode)
        try:
            rows = fsm.query(self.SOURCE_QUERY)
            assert sorted(row["ssn"] for row in rows) == expected
            assert set(fsm.last_query_stats.missing_shards) == {
                f"agent-university#{owner}/4"
            }
        finally:
            runtime.close()

    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_error_policy_still_refuses(self, mode):
        fsm = self._federation(corrupt=True)
        _, owner = self._owner(fsm)
        runtime = self._attach(fsm, "error", mode)
        try:
            with pytest.raises(PartialResultError) as excinfo:
                fsm.query(self.SOURCE_QUERY)
            assert f"agent-university#{owner}/4" in str(excinfo.value)
        finally:
            runtime.close()


class _SlowFirstAttemptTransport(AgentTransport):
    """Delegate transport whose target endpoint stalls on its first call.

    The first attempt overruns any sub-*delay* policy timeout and is
    abandoned; the retry answers promptly — the "slow network burp"
    the dedup property must survive.
    """

    def __init__(self, inner, endpoint, delay):
        self._inner = inner
        self._endpoint = endpoint
        self._delay = delay
        self._calls = 0
        self._lock = threading.Lock()

    def agent_names(self):
        return self._inner.agent_names()

    def agent_for_schema(self, schema_name):
        return self._inner.agent_for_schema(schema_name)

    def generation(self, request):
        return self._inner.generation(request)

    def perform(self, request):
        if request.endpoint == self._endpoint:
            with self._lock:
                self._calls += 1
                first = self._calls == 1
            if first:
                time.sleep(self._delay)
        return self._inner.perform(request)


class _AsyncSlowFirstAttemptTransport(AsyncAgentTransport):
    """Coroutine twin of :class:`_SlowFirstAttemptTransport`."""

    def __init__(self, inner, endpoint, delay):
        self._inner = inner
        self._endpoint = endpoint
        self._delay = delay
        self._calls = 0
        self._lock = threading.Lock()

    def agent_names(self):
        return self._inner.agent_names()

    def agent_for_schema(self, schema_name):
        return self._inner.agent_for_schema(schema_name)

    def generation(self, request):
        return self._inner.generation(request)

    async def perform(self, request):
        if request.endpoint == self._endpoint:
            with self._lock:
                self._calls += 1
                first = self._calls == 1
            if first:
                await asyncio.sleep(self._delay)
        return await self._inner.perform(request)
