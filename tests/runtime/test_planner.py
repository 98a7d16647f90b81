"""The query planner: pruning, coalescing, pushdown, exact loss accounting.

Unit coverage for the planning primitives (batch requests, endpoint
coalescing, the §6 contributing-classes closure) plus end-to-end checks
of the planned query path: planned answers must equal unplanned answers
while ``round_trips`` drops strictly; a pushed-down selection is part
of request identity and cache key; and a failed batch must name exactly
the granules it lost in ``RuntimeStats.lost_granules``.
"""

import pytest

from repro.errors import PartialResultError, TransportError
from repro.federation import FSM, FSMAgent
from repro.federation.query import FederatedQuery
from repro.runtime import (
    BatchScanRequest,
    BatchScanResult,
    FaultProfile,
    FederationRuntime,
    InProcessTransport,
    RuntimePolicy,
    ScanRequest,
    SimulatedNetworkTransport,
    coalesce_by_endpoint,
    contributing_classes,
    plan_query,
)
from repro.workloads import federated_cluster, genealogy

CLUSTER_QUERY = "person0() -> ssn#"
GENEALOGY_QUERY = "uncle(niece_nephew='John') -> Ussn#"


def _genealogy_fsm():
    _, _, text, databases = genealogy()
    fsm = FSM()
    for name, database in databases.items():
        agent = FSMAgent(f"agent-{name}")
        agent.host_object_database(database)
        fsm.register_agent(agent)
    fsm.declare(text)
    names = list(fsm.schema_names())
    fsm.integrate(names[0], names[1])
    return fsm


def _answers(rows):
    return sorted(row["ssn#"] if "ssn#" in row else row["Ussn#"] for row in rows)


def _simulated(fsm, policy=None, plan=True, per_agent=()):
    transport = SimulatedNetworkTransport(
        InProcessTransport(fsm._agents, fsm._schema_host)
    )
    for name, profile in per_agent:
        transport.set_profile(name, profile)
    runtime = FederationRuntime(
        transport=transport, policy=policy or RuntimePolicy(), plan=plan
    )
    fsm.use_runtime(runtime=runtime)
    return runtime, transport


class TestBatchPrimitives:
    def test_batch_needs_granules_and_one_endpoint(self):
        with pytest.raises(TransportError):
            BatchScanRequest(())
        with pytest.raises(TransportError):
            BatchScanRequest(
                (ScanRequest("a1", "S1", "c"), ScanRequest("a2", "S2", "c"))
            )

    def test_batch_exposes_its_granules(self):
        granules = (
            ScanRequest("a1", "S1", "person0"),
            ScanRequest("a1", "S1", "person1"),
        )
        batch = BatchScanRequest(granules)
        assert batch.endpoint == "a1"
        assert batch.agent == "a1"
        assert batch.granules == granules
        assert len(batch) == 2
        assert "batch[2]" in batch.describe()
        # a plain request is its own single granule
        assert granules[0].granules == (granules[0],)

    def test_coalesce_groups_by_endpoint_keeping_order(self):
        a0 = ScanRequest("a1", "S1", "person0")
        b0 = ScanRequest("a2", "S2", "person0")
        a1 = ScanRequest("a1", "S1", "person1")
        dispatches = coalesce_by_endpoint([a0, b0, a1])
        assert len(dispatches) == 2
        batch, single = dispatches
        assert isinstance(batch, BatchScanRequest)
        assert batch.requests == (a0, a1)  # first-seen endpoint order
        assert single is b0  # singletons stay plain requests

    def test_in_process_transport_unpacks_batches(self, cluster_fsm):
        fsm = cluster_fsm
        transport = InProcessTransport(fsm._agents, fsm._schema_host)
        granules = (
            ScanRequest("agent1", "S1", "person0"),
            ScanRequest("agent1", "S1", "person1"),
        )
        result = transport.perform(BatchScanRequest(granules))
        assert isinstance(result, BatchScanResult)
        expected = [transport.perform(granule) for granule in granules]
        assert [
            [obj.oid for obj in value] for value in result.values
        ] == [[obj.oid for obj in value] for value in expected]
        # the batch result's length is its total item count, so the
        # simulated network's per-item transfer cost stays honest
        assert len(result) == sum(len(value) for value in expected)


class _RecordingTransport(InProcessTransport):
    """Records the selection every granule reaches its agent with."""

    def __init__(self, *args):
        super().__init__(*args)
        self.selections = {}

    def perform(self, request):
        if isinstance(request, ScanRequest):
            self.selections[request.endpoint] = request.where
        return super().perform(request)


class TestSelectionIdentity:
    def test_selection_is_part_of_request_identity(self):
        plain = ScanRequest("a1", "S1", "person0")
        narrowed = ScanRequest("a1", "S1", "person0", where=(("grade", 1),))
        assert narrowed != plain
        assert narrowed == ScanRequest("a1", "S1", "person0", where=(("grade", 1),))
        assert narrowed.cache_key != plain.cache_key
        assert "grade=1" in narrowed.describe()
        with pytest.raises(TransportError):
            ScanRequest("a1", "S1", "person0", "extent", where=(("grade", 1),))

    @pytest.mark.parametrize("cache", [False, True])
    def test_selections_are_delivered_to_the_transport(self, cluster_fsm, cache):
        transport = _RecordingTransport(cluster_fsm._agents, cluster_fsm._schema_host)
        runtime = FederationRuntime(
            transport=transport, policy=RuntimePolicy(cache_enabled=cache)
        )
        cluster_fsm.use_runtime(runtime=runtime)
        narrowed = cluster_fsm.query("person0(grade=2) -> ssn#")
        cluster_fsm.detach_runtime()
        # one granule per agent (the plan prunes person1); a cached
        # granule must hold the whole extent, so only cache-off narrows
        expected = () if cache else (("grade", 2),)
        assert transport.selections == {
            f"agent{index}": expected for index in (1, 2, 3, 4)
        }
        assert runtime.stats().counter("scans_narrowed") == (0 if cache else 4)
        assert sorted(row["ssn#"] for row in narrowed) == sorted(
            row["ssn#"] for row in cluster_fsm.query("person0(grade=2) -> ssn#")
        )
        runtime.close()


class TestContributingClasses:
    def test_cluster_query_prunes_the_unrelated_class(self, cluster_fsm):
        integrated = cluster_fsm.integrated
        contributing = contributing_classes(integrated, "person0")
        assert "person0" in contributing
        assert "person1" not in contributing

    def test_genealogy_rules_keep_every_body_class(self):
        fsm = _genealogy_fsm()
        contributing = contributing_classes(fsm.integrated, "uncle")
        # uncle is derived from parent x brother: nothing may be pruned
        assert contributing == {"uncle", "parent", "brother"}

    def test_unknown_class_disables_pruning(self, cluster_fsm):
        integrated = cluster_fsm.integrated
        assert contributing_classes(integrated, "no_such_class") == frozenset(
            integrated.classes
        )

    def test_plan_query_builds_pairs_and_selections(self):
        fsm = _genealogy_fsm()
        query = FederatedQuery.parse(GENEALOGY_QUERY)
        schemas = {name: fsm.database(name).schema for name in fsm._schema_host}
        plan = plan_query(fsm.integrated, query, schemas=schemas, mappings=fsm.mappings)
        assert plan.class_name == "uncle"
        assert plan.pruned == ()
        assert set(plan.pairs) == {
            ("S1", "parent"), ("S1", "brother"), ("S2", "uncle")
        }
        # rules derive uncle, so its own origin must scan in full
        assert plan.selections == {}
        assert plan.unnarrowed == {("S2", "uncle"): "rule derives uncle"}
        assert plan.allows("uncle") and not plan.allows("no_such_class")
        assert "full S2.uncle (rule derives uncle)" in plan.describe()
        cached = plan_query(
            fsm.integrated, query, schemas=schemas, mappings=fsm.mappings,
            cache_enabled=True,
        )
        assert cached.selections == {}
        assert cached.unnarrowed == {("S2", "uncle"): "cache on"}


class TestRoundTripAccounting:
    @pytest.mark.parametrize(
        "builder, query",
        [
            (_genealogy_fsm, GENEALOGY_QUERY),
            (None, CLUSTER_QUERY),  # None → the cluster fixture builder
        ],
        ids=["genealogy", "cluster"],
    )
    def test_planned_round_trips_drop_with_identical_answers(
        self, cluster_builder, builder, query
    ):
        build = builder or cluster_builder
        unplanned_fsm = build()
        unplanned_rt, _ = _simulated(unplanned_fsm, plan=False)
        unplanned_rows = unplanned_fsm.query(query)
        unplanned = unplanned_fsm.last_query_stats

        planned_fsm = build()
        planned_rt, _ = _simulated(planned_fsm, plan=True)
        planned_rows = planned_fsm.query(query)
        planned = planned_fsm.last_query_stats
        try:
            assert _answers(planned_rows) == _answers(unplanned_rows)
            assert unplanned_rows  # a vacuous parity proves nothing
            assert 0 < planned.counter("round_trips") < unplanned.counter(
                "round_trips"
            )
            # unplanned traffic pays one round-trip per granule
            assert unplanned.counter("round_trips") == unplanned.counter(
                "agent_scans"
            )
            assert planned_fsm.runtime.last_plan is not None
        finally:
            planned_rt.close()
            unplanned_rt.close()

    def test_per_agent_round_trip_histogram(self, cluster_builder):
        fsm = cluster_builder()
        runtime, _ = _simulated(fsm, plan=True)
        fsm.query(CLUSTER_QUERY)
        delta = fsm.last_query_stats
        assert set(delta.agent_round_trips) == {
            "agent1", "agent2", "agent3", "agent4"
        }
        assert sum(delta.agent_round_trips.values()) == delta.counter(
            "round_trips"
        )
        assert fsm.runtime_stats().counter("planned_queries") == 1
        runtime.close()

    def test_warm_planned_repeat_scans_nothing(self, cluster_builder):
        fsm = cluster_builder()
        runtime, _ = _simulated(fsm, plan=True)
        cold = _answers(fsm.query(CLUSTER_QUERY))
        warm = _answers(fsm.query(CLUSTER_QUERY))
        assert warm == cold
        delta = fsm.last_query_stats
        assert delta.counter("agent_scans") == 0
        assert delta.counter("round_trips") == 0
        runtime.close()


class TestBatchFaultAccounting:
    def test_failed_batch_names_exactly_the_lost_granules(self):
        fsm = _genealogy_fsm()
        runtime, _ = _simulated(
            fsm,
            RuntimePolicy(
                max_retries=0, backoff_base=0.0, failure_policy="partial"
            ),
            per_agent=[("agent-S1", FaultProfile(drop_rate=1.0))],
        )
        rows = fsm.query(GENEALOGY_QUERY)
        assert rows == []  # uncle needs S1's parent and brother facts
        stats = fsm.last_query_stats
        # the dead agent's batch carried two granules; both are named
        lost = set(stats.lost_granules)
        assert lost == {
            ScanRequest("agent-S1", "S1", "parent").describe(),
            ScanRequest("agent-S1", "S1", "brother").describe(),
        }
        assert stats.counter("lost_granules") == 2
        assert stats.counter("partial_results") == 2
        warnings = runtime.drain_warnings()
        assert any("agent-S1" in warning for warning in warnings)
        runtime.close()

    def test_error_policy_still_raises_on_batch_failure(self):
        fsm = _genealogy_fsm()
        runtime, _ = _simulated(
            fsm,
            RuntimePolicy(
                max_retries=0, backoff_base=0.0, failure_policy="error"
            ),
            per_agent=[("agent-S1", FaultProfile(drop_rate=1.0))],
        )
        with pytest.raises(PartialResultError):
            fsm.query(GENEALOGY_QUERY)
        runtime.close()

    def test_surviving_agents_still_answer(self, cluster_builder):
        fsm = cluster_builder()
        runtime, _ = _simulated(
            fsm,
            RuntimePolicy(
                max_retries=0, backoff_base=0.0, failure_policy="partial"
            ),
            per_agent=[("agent3", FaultProfile(drop_rate=1.0))],
        )
        answers = _answers(fsm.query(CLUSTER_QUERY))
        assert answers and not any(a.startswith("S3-") for a in answers)
        stats = fsm.last_query_stats
        assert stats.counter("lost_granules") == 1
        assert all("agent3" in name for name in stats.lost_granules)
        runtime.close()


class TestBatchedCacheParity:
    """The bugfix the ISSUE pins: batched results must land in the cache
    per granule under the same keys an unplanned run would use, and
    invalidation must treat batched-origin entries identically."""

    def test_cache_keys_match_the_unplanned_run(self, cluster_builder):
        planned = cluster_builder()
        planned_rt, _ = _simulated(planned, plan=True)
        planned.query(CLUSTER_QUERY)

        unplanned = cluster_builder()
        unplanned_rt, _ = _simulated(unplanned, plan=False)
        unplanned.query(CLUSTER_QUERY)

        planned_keys = set(planned_rt.cache._granules)
        unplanned_keys = set(unplanned_rt.cache._granules)
        # pruning may shrink the planned key set, but every planned key
        # must be a key the unplanned run would have written — no batch
        # ever reaches the cache as a single entry
        assert planned_keys
        assert planned_keys <= unplanned_keys
        for key in planned_keys:
            assert len(key) in (3, 4)  # the existing key shapes only
        planned_rt.close()
        unplanned_rt.close()

    def test_invalidate_evicts_batched_origin_entries(self, cluster_builder):
        fsm = cluster_builder()
        runtime, _ = _simulated(fsm, plan=True)
        fsm.query(CLUSTER_QUERY)
        assert runtime.invalidate(agent="agent1") == 1
        fsm.query(CLUSTER_QUERY)
        delta = fsm.last_query_stats
        # only the invalidated agent's granule rescans
        assert set(delta.agent_scans) == {"agent1"}
        assert delta.counter("agent_scans") == 1
        runtime.close()

    def test_bump_generation_evicts_everything_batched(self, cluster_builder):
        fsm = cluster_builder()
        runtime, _ = _simulated(fsm, plan=True)
        cold = _answers(fsm.query(CLUSTER_QUERY))
        cold_scans = fsm.last_query_stats.counter("agent_scans")
        runtime.bump_generation()
        again = _answers(fsm.query(CLUSTER_QUERY))
        assert again == cold
        assert fsm.last_query_stats.counter("agent_scans") == cold_scans
        runtime.close()

    def test_component_write_is_visible_through_batches(self, cluster_builder):
        fsm = cluster_builder()
        runtime, _ = _simulated(fsm, plan=True)
        before = _answers(fsm.query(CLUSTER_QUERY))
        fsm.database("S1").insert(
            "person0", {"ssn#": "S1-new", "name": "new", "grade": 1}
        )
        after = _answers(fsm.query(CLUSTER_QUERY))
        assert len(after) == len(before) + 1
        assert "S1-new" in after
        runtime.close()
