"""Property-based shard parity: scatter/merge must never change answers.

Sharding an extent can silently lose facts (a slice nobody owns) or
duplicate them (overlapping slices, retry races); these properties pin
the invariant — for randomized cluster workloads, the sharded answer
set (N ∈ {1, 2, 7} hash shards, threaded and async modes) is exactly
the unsharded baseline, cold, warm, and across
``bump_generation`` invalidation.  Generated source federations pin the
same for §3 data mappings, NULLs and OID references in the extents.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federation import FSM, FSMAgent
from repro.runtime import RuntimePolicy, ShardPlan, shard_of_oid
from repro.workloads import (
    build_memory_databases,
    federated_cluster,
    generate_source_federation,
    source_fsm,
)

QUERY = "person0() -> ssn#"

_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

plans = st.builds(ShardPlan, shards=st.sampled_from([1, 2, 7]))


def _build_fsm(schemas, per_class, seed):
    built, text, databases = federated_cluster(
        schemas=schemas, per_class=per_class, seed=seed
    )
    fsm = FSM()
    for index, schema in enumerate(built):
        agent = FSMAgent(f"agent{index + 1}")
        agent.host_object_database(databases[schema.name])
        fsm.register_agent(agent)
    fsm.declare(text)
    fsm.integrate_all()
    return fsm


def _answers(rows):
    return sorted(row["ssn#"] for row in rows)


def _assert_parity(schemas, per_class, seed, plan, mode):
    baseline = _build_fsm(schemas, per_class, seed)
    baseline.use_runtime(RuntimePolicy())
    expected = _answers(baseline.query(QUERY))
    assert expected  # a vacuous parity proves nothing

    sharded = _build_fsm(schemas, per_class, seed)
    runtime = sharded.use_runtime(RuntimePolicy(), mode=mode, shard_plan=plan)
    try:
        assert _answers(sharded.query(QUERY)) == expected  # cold scatter
        warm_rows = sharded.query(QUERY)  # warm: merged from shard granules
        assert _answers(warm_rows) == expected
        assert sharded.last_query_stats.counter("agent_scans") == 0
        runtime.bump_generation()  # every shard granule must miss again
        assert _answers(sharded.query(QUERY)) == expected
        assert sharded.last_query_stats.counter("agent_scans") > 0
    finally:
        runtime.close()
        baseline.runtime.close()


class TestShardedAnswersEqualUnsharded:
    @settings(**_SETTINGS)
    @given(
        schemas=st.integers(2, 4),
        per_class=st.integers(1, 10),
        seed=st.integers(0, 999),
        plan=plans,
    )
    def test_threaded_parity(self, schemas, per_class, seed, plan):
        _assert_parity(schemas, per_class, seed, plan, "threaded")

    @settings(**_SETTINGS)
    @given(
        schemas=st.integers(2, 4),
        per_class=st.integers(1, 10),
        seed=st.integers(0, 999),
        plan=plans,
    )
    def test_async_parity(self, schemas, per_class, seed, plan):
        _assert_parity(schemas, per_class, seed, plan, "async")


class TestShardOwnership:
    """The plan itself: every OID owned by exactly one shard."""

    @settings(**_SETTINGS)
    @given(
        per_class=st.integers(1, 16),
        seed=st.integers(0, 999),
        plan=plans,
    )
    def test_shards_partition_every_extent(self, per_class, seed, plan):
        _, _, databases = federated_cluster(
            schemas=2, per_class=per_class, seed=seed
        )
        for database in databases.values():
            extent = database.extent("person0")
            owners = [plan.shard_of(obj.oid) for obj in extent]
            assert all(0 <= owner < plan.shards for owner in owners)
            slices = [spec.filter_instances(extent) for spec in plan.specs()]
            assert sum(len(s) for s in slices) == len(extent)
            merged = {obj.oid for piece in slices for obj in piece}
            assert merged == {obj.oid for obj in extent}

    @given(
        number=st.integers(1, 10_000),
        plan=plans,
    )
    def test_shard_of_is_deterministic(self, number, plan):
        class Token:
            def __init__(self, n):
                self.number = n

            def __str__(self):
                return f"tok-{self.number}"

        token = Token(number)
        assert plan.shard_of(token) == plan.shard_of(token)
        assert plan.shard_of(token) == shard_of_oid(token, plan.shards)


class TestWarmRestartParity:
    """A persisted-then-reopened cache answers the parity workload with
    zero agent scans; a component write after reopen forces a rescan."""

    @pytest.mark.parametrize("plan", [ShardPlan(1), ShardPlan(4)])
    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_restarted_federation_answers_scan_free(self, tmp_path, plan, mode):
        cache_path = tmp_path / "extents.db"
        cold_fsm = _build_fsm(schemas=3, per_class=5, seed=11)
        runtime = cold_fsm.use_runtime(
            RuntimePolicy(), mode=mode, shard_plan=plan, cache_path=str(cache_path)
        )
        try:
            expected = _answers(cold_fsm.query(QUERY))
            assert expected
            assert cold_fsm.last_query_stats.counter("agent_scans") > 0
        finally:
            runtime.close()

        warm_fsm = _build_fsm(schemas=3, per_class=5, seed=11)  # "restart"
        restarted = warm_fsm.use_runtime(
            RuntimePolicy(), mode=mode, shard_plan=plan, cache_path=str(cache_path)
        )
        try:
            assert restarted.stats().counter("cache_restores") > 0
            assert _answers(warm_fsm.query(QUERY)) == expected
            assert warm_fsm.last_query_stats.counter("agent_scans") == 0

            # a component-database version bump after the reopen must
            # force a rescan and surface the write
            warm_fsm.database("S1").insert(
                "person0", {"ssn#": "S1-post-restart", "name": "new", "grade": 1}
            )
            after = _answers(warm_fsm.query(QUERY))
            assert warm_fsm.last_query_stats.counter("agent_scans") > 0
            assert "S1-post-restart" in after
            assert len(after) == len(expected) + 1
        finally:
            restarted.close()


class TestValueSetParity:
    def test_component_write_visible_through_shard_granules(self, cluster_builder):
        fsm = cluster_builder()
        runtime = fsm.use_runtime(RuntimePolicy(), shard_plan=ShardPlan(4))
        before = _answers(fsm.query(QUERY))
        fsm.database("S1").insert(
            "person0", {"ssn#": "S1-new", "name": "new", "grade": 1}
        )
        after = _answers(fsm.query(QUERY))
        assert len(after) == len(before) + 1
        assert "S1-new" in after
        assert runtime.shard_plan is not None


def _rows_key(rows):
    return sorted(
        sorted((name, repr(value)) for name, value in row.items()) for row in rows
    )


class TestSourceFederationParity:
    """Generated sources carry §3 data mappings (fuzzy and linear level
    encodings, a default fill for NULL names), NULL column values and
    OID references to lookup and person rows; every one must reach the
    answers and extents alike in both modes, sharded and unsharded."""

    QUERIES = (
        "person() -> ssn, name, level",
        "person() -> ssn, dept",
        "enrollment() -> course, mark, person_ssn",
        "visit() -> day, cost, person_ssn",
    )
    EXTENTS = (
        ("university", "person"),
        ("university", "enrollment"),
        ("hospital", "visit"),
    )

    @staticmethod
    def _dataset():
        dataset = generate_source_federation(
            people_per_schema=8, records_per_person=1, seed=5
        )
        # NULL values the mappings do not fill: kept, never dropped
        dataset.rows["university"]["enrollment"][0]["mark"] = None
        dataset.rows["hospital"]["visit"][1]["day"] = None
        return dataset

    def _observe(self, plan, mode):
        dataset = self._dataset()
        fsm = source_fsm(build_memory_databases(dataset), dataset.assertions)
        fsm.integrate_all()
        runtime = fsm.use_runtime(
            RuntimePolicy(max_workers=2), mode=mode, shard_plan=plan
        )
        try:
            rows = [_rows_key(fsm.query(query)) for query in self.QUERIES]
            extents = [
                sorted(
                    (
                        repr(instance.oid),
                        instance.class_name,
                        repr(sorted(instance.attributes.items())),
                        repr(sorted(instance.aggregations.items())),
                    )
                    for instance in runtime.direct_extent(schema, class_name)
                )
                for schema, class_name in self.EXTENTS
            ]
        finally:
            runtime.close()
        return rows, extents

    @pytest.mark.parametrize("plan", [None, ShardPlan(2)])
    def test_mapped_rows_and_extents_match_threaded(self, plan):
        observed = self._observe(plan, "async")
        assert observed == self._observe(plan, "threaded")
        assert observed == self._observe(None, "threaded")
        rows, extents = observed
        assert all(rows)  # a vacuous parity proves nothing
        flat = repr(rows) + repr(extents)
        assert "'unknown'" in flat  # a default-filled NULL name
        assert "('mark', None)" in flat and "('day', None)" in flat
        assert "relation='department'" in flat  # an OID reference
