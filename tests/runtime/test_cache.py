"""The extent cache: hits, explicit invalidation, generation semantics."""

import pytest

from repro.federation import FSMAgent
from repro.model import ClassDef, ObjectDatabase, Schema
from repro.logic import FactStore
from repro.runtime import (
    ExtentCache,
    FederationRuntime,
    MISS,
    RuntimeMetrics,
    RuntimePolicy,
    ScanRequest,
    ShardPlan,
)


@pytest.fixture
def runtime():
    schema = Schema("S1")
    schema.add_class(ClassDef("person").attr("ssn#"))
    database = ObjectDatabase(schema, agent="h1")
    database.insert("person", {"ssn#": "1"})
    agent = FSMAgent("a1")
    agent.host_object_database(database)
    return FederationRuntime(agents={"a1": agent}), agent, database


class TestDroppedSliceCount:
    """Every path that forgets an entry's lifted slices counts one
    ``lift_slices_dropped`` per slice map."""

    @staticmethod
    def _warm(cache, request, context="lift", source_generation=1):
        version = cache.put(request, [1], source_generation=source_generation)
        cache.attach_slice(version, context, "slice", FactStore())
        return version

    @pytest.mark.parametrize(
        "drop",
        [
            lambda cache, request: cache.put(request, [2], source_generation=1),
            lambda cache, request: cache.lookup(request, source_generation=2),
            lambda cache, request: cache.invalidate(schema="S1"),
            lambda cache, request: cache.clear(),
            lambda cache, request: cache.bump_generation(),
        ],
        ids=["put", "stale_lookup", "invalidate", "clear", "bump_generation"],
    )
    def test_each_drop_counts_once(self, drop):
        metrics = RuntimeMetrics()
        cache = ExtentCache(metrics=metrics)
        request = ScanRequest("a1", "S1", "person")
        self._warm(cache, request)
        drop(cache, request)
        assert metrics.snapshot().counter("lift_slices_dropped") == 1
        drop(cache, request)  # nothing lifted is left to drop
        assert metrics.snapshot().counter("lift_slices_dropped") == 1

    def test_a_new_lift_context_drops_the_old_slices(self):
        metrics = RuntimeMetrics()
        cache = ExtentCache(metrics=metrics)
        request = ScanRequest("a1", "S1", "person")
        version = self._warm(cache, request, context="before")
        cache.attach_slice(version, "before", "other", FactStore())
        assert metrics.snapshot().counter("lift_slices_dropped") == 0
        cache.attach_slice(version, "after", "slice", FactStore())
        assert metrics.snapshot().counter("lift_slices_dropped") == 1
        assert cache.slice(version, "before", "slice") is None


class TestCachePrimitives:
    def test_miss_then_hit(self):
        cache = ExtentCache()
        request = ScanRequest("a1", "S1", "person")
        assert cache.lookup(request) == (MISS, None)
        cache.put(request, [1, 2])
        value, version = cache.lookup(request)
        assert value == [1, 2]
        assert version is not None and version.op == "direct_extent"

    def test_results_are_copied(self):
        cache = ExtentCache()
        request = ScanRequest("a1", "S1", "person")
        cache.put(request, [1])
        cache.get(request).append(2)
        assert cache.get(request) == [1]

    def test_stale_eviction_prunes_empty_granules(self):
        """Regression: evicting the last stale entry stranded the
        emptied granule dict in ``_granules`` forever."""
        cache = ExtentCache()
        request = ScanRequest("a1", "S1", "person")
        cache.put(request, [1], source_generation=1)
        assert cache.get(request, source_generation=2) is MISS  # evicts
        assert request.cache_key not in cache._granules
        # an entry surviving next to the stale one keeps its granule
        full = ScanRequest("a1", "S1", "person", "extent")
        cache.put(request, [1], source_generation=1)
        cache.put(full, [2], source_generation=1)
        assert cache.get(request, source_generation=2) is MISS
        assert cache.get(full, source_generation=1) == [2]
        assert request.cache_key in cache._granules

    def test_variants_share_a_granule(self):
        cache = ExtentCache()
        direct = ScanRequest("a1", "S1", "person")
        full = ScanRequest("a1", "S1", "person", "extent")
        cache.put(direct, [1])
        cache.put(full, [2])
        assert len(cache) == 2
        assert cache.invalidate(class_name="person") == 1  # one granule
        assert cache.get(direct) is MISS and cache.get(full) is MISS

    def test_explicit_invalidation_by_coordinate(self):
        cache = ExtentCache()
        cache.put(ScanRequest("a1", "S1", "person"), [1])
        cache.put(ScanRequest("a2", "S2", "person"), [2])
        assert cache.invalidate(agent="a1") == 1
        assert cache.get(ScanRequest("a2", "S2", "person")) == [2]
        assert cache.invalidate() == 1  # drop the rest

    def test_bump_generation_invalidates_lazily(self):
        cache = ExtentCache()
        request = ScanRequest("a1", "S1", "person")
        cache.put(request, [1])
        cache.bump_generation()
        assert cache.get(request) is MISS

    def test_source_generation_mismatch_is_a_miss(self):
        cache = ExtentCache()
        request = ScanRequest("a1", "S1", "person")
        cache.put(request, [1], source_generation=7)
        assert cache.get(request, source_generation=7) == [1]
        assert cache.get(request, source_generation=8) is MISS


class TestShardGranules:
    """Sharded scans key 4-tuples; no invalidation path may miss them.

    The regression this pins: :meth:`ExtentCache.invalidate` matches on
    the first three key coordinates — it must treat the 3-tuple
    (unsharded) and 4-tuple (sharded) key shapes uniformly instead of
    silently skipping shard granules.
    """

    @staticmethod
    def _sharded_requests(shards=3):
        plan = ShardPlan(shards)
        return plan.split(ScanRequest("a1", "S1", "person"))

    def test_each_shard_is_its_own_granule(self):
        cache = ExtentCache()
        for index, request in enumerate(self._sharded_requests()):
            cache.put(request, [index])
        requests = self._sharded_requests()
        assert [cache.get(r) for r in requests] == [[0], [1], [2]]
        # the unsharded granule of the same class is untouched
        assert cache.get(ScanRequest("a1", "S1", "person")) is MISS

    def test_class_invalidation_evicts_every_shard_granule(self):
        cache = ExtentCache()
        cache.put(ScanRequest("a1", "S1", "person"), ["unsharded"])
        for request in self._sharded_requests():
            cache.put(request, ["slice"])
        # 1 unsharded + 3 shard granules, all matched by the class name
        assert cache.invalidate(class_name="person") == 4
        assert all(cache.get(r) is MISS for r in self._sharded_requests())
        assert cache.get(ScanRequest("a1", "S1", "person")) is MISS

    def test_generation_bump_evicts_every_shard_granule(self):
        cache = ExtentCache()
        requests = self._sharded_requests()
        for request in requests:
            cache.put(request, ["slice"])
        cache.bump_generation()
        assert all(cache.get(r) is MISS for r in requests)

    def test_shard_coordinate_narrows_invalidation(self):
        cache = ExtentCache()
        requests = self._sharded_requests()
        for request in requests:
            cache.put(request, ["slice"])
        assert cache.invalidate(shard=(1, 3)) == 1
        assert cache.get(requests[1]) is MISS
        assert cache.get(requests[0]) == ["slice"]
        assert cache.get(requests[2]) == ["slice"]

    def test_full_shard_coordinate_narrows_to_one_plan(self):
        """invalidate(shard=...) matches the ``(index, of)`` coordinate
        exactly: a plan with another shard count keeps its granules."""
        logical = ScanRequest("a1", "S1", "person")
        three = ShardPlan(3).split(logical)[1]
        four = ShardPlan(4).split(logical)[1]
        cache = ExtentCache()
        cache.put(three, ["three"])
        cache.put(four, ["four"])
        assert cache.invalidate(shard=(1, 3)) == 1
        assert cache.get(three) is MISS
        assert cache.get(four) == ["four"]

    def test_runtime_generation_bump_forces_full_rescatter(self):
        schema = Schema("S1")
        schema.add_class(ClassDef("person").attr("ssn#"))
        database = ObjectDatabase(schema, agent="h1")
        for index in range(12):
            database.insert("person", {"ssn#": str(index)})
        agent = FSMAgent("a1")
        agent.host_object_database(database)
        rt = FederationRuntime(agents={"a1": agent}, shard_plan=ShardPlan(4))
        cold = {i.oid for i in rt.direct_extent("S1", "person")}
        scans_after_cold = agent.access_count
        warm = {i.oid for i in rt.direct_extent("S1", "person")}
        assert warm == cold
        assert agent.access_count == scans_after_cold  # all granules warm
        rt.bump_generation()
        again = {i.oid for i in rt.direct_extent("S1", "person")}
        assert again == cold
        # every one of the 4 shard granules had to rescan
        assert agent.access_count == scans_after_cold + 4


class TestRuntimeCaching:
    def test_warm_fetch_skips_the_agent(self, runtime):
        rt, agent, _ = runtime
        first = rt.direct_extent("S1", "person")
        count_after_cold = agent.access_count
        second = rt.direct_extent("S1", "person")
        assert [i.oid for i in first] == [i.oid for i in second]
        assert agent.access_count == count_after_cold  # zero warm scans
        stats = rt.stats()
        assert stats.counter("cache_hits") == 1
        assert stats.counter("cache_misses") == 1

    def test_component_write_invalidates_via_generation(self, runtime):
        rt, agent, database = runtime
        assert len(rt.direct_extent("S1", "person")) == 1
        database.insert("person", {"ssn#": "2"})
        assert len(rt.direct_extent("S1", "person")) == 2  # refetched
        assert agent.access_count == 2

    def test_explicit_invalidation_forces_rescan(self, runtime):
        rt, agent, _ = runtime
        rt.direct_extent("S1", "person")
        assert rt.invalidate(schema="S1") == 1
        rt.direct_extent("S1", "person")
        assert agent.access_count == 2

    def test_cache_disabled_policy_always_scans(self):
        schema = Schema("S1")
        schema.add_class(ClassDef("person").attr("ssn#"))
        database = ObjectDatabase(schema, agent="h1")
        database.insert("person", {"ssn#": "1"})
        agent = FSMAgent("a1")
        agent.host_object_database(database)
        rt = FederationRuntime(
            agents={"a1": agent}, policy=RuntimePolicy(cache_enabled=False)
        )
        rt.direct_extent("S1", "person")
        rt.direct_extent("S1", "person")
        assert agent.access_count == 2
        assert rt.stats().counter("cache_hits") == 0
