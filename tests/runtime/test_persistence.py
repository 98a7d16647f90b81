"""The persistent extent store: warm restarts, crash safety, wiring.

The tentpole invariant: a federation restarted with the same
``cache_path`` answers its queries **without a single agent scan** and
with results identical to the cold run, while a component-database
write after the reopen — or a persisted ``bump_generation`` — still
invalidates exactly as it does live.
"""

import pickle
import sqlite3

import pytest

from repro.core.session import FederationSession
from repro.federation import FSM, FSMAgent
from repro.model import ClassDef, ObjectDatabase, Schema
from repro.workloads import federated_cluster
from repro.runtime import (
    MISS,
    ExtentCache,
    FederationRuntime,
    PersistentExtentStore,
    RuntimeMetrics,
    ScanRequest,
    ShardPlan,
)
from repro.runtime.persistence import FORMAT_VERSION


def build_single_agent(instances=3):
    schema = Schema("S1")
    schema.add_class(ClassDef("person").attr("ssn#"))
    database = ObjectDatabase(schema, agent="h1")
    for index in range(instances):
        database.insert("person", {"ssn#": str(index)})
    agent = FSMAgent("a1")
    agent.host_object_database(database)
    return agent, database


@pytest.fixture
def cache_path(tmp_path):
    return tmp_path / "extents.db"


class TestStorePrimitives:
    def test_roundtrip_through_reopen(self, cache_path):
        store = PersistentExtentStore(cache_path)
        key = ("a1", "S1", "person")
        store.put(key, "direct_extent", [1, 2], 0, 7)
        store.put(key, "extent", [3], 0, 7)
        assert len(store) == 2
        store.close()

        reopened = PersistentExtentStore(cache_path)
        assert not reopened.recovered
        entries = {op: value for _, op, value, _, _ in reopened.load()}
        assert entries == {"direct_extent": [1, 2], "extent": [3]}
        reopened.close()

    def test_sharded_key_roundtrip(self, cache_path):
        store = PersistentExtentStore(cache_path)
        key = ("a1", "S1", "person", (2, 7))
        store.put(key, "direct_extent", ["slice"], 0, 1)
        store.close()
        reopened = PersistentExtentStore(cache_path)
        (restored_key, op, value, cache_generation, source_generation), = list(
            reopened.load()
        )
        assert restored_key == key
        assert value == ["slice"] and source_generation == 1
        reopened.close()

    def test_delete_and_clear(self, cache_path):
        store = PersistentExtentStore(cache_path)
        key = ("a1", "S1", "person")
        store.put(key, "direct_extent", [1], 0, 1)
        store.put(key, "extent", [2], 0, 1)
        store.delete(key, "direct_extent")
        assert len(store) == 1
        store.delete_granule(key)
        assert len(store) == 0
        store.put(key, "extent", [2], 0, 1)
        store.clear()
        assert len(store) == 0
        store.close()

    def test_generation_header_persists(self, cache_path):
        store = PersistentExtentStore(cache_path)
        assert store.generation() == 0
        store.set_generation(5)
        store.close()
        reopened = PersistentExtentStore(cache_path)
        assert reopened.generation() == 5
        reopened.close()

    def test_load_purges_entries_from_older_generations(self, cache_path):
        store = PersistentExtentStore(cache_path)
        store.put(("a1", "S1", "person"), "direct_extent", [1], 0, 1)
        store.set_generation(1)  # the entry above is now stale
        store.put(("a1", "S1", "city"), "direct_extent", [2], 1, 1)
        assert list(store.load()) == [
            (("a1", "S1", "city"), "direct_extent", [2], 1, 1)
        ]
        assert len(store) == 1  # the stale row was deleted, not kept
        store.close()


class TestCrashSafety:
    def test_corrupt_file_falls_back_to_cold_start(self, cache_path):
        cache_path.write_bytes(b"this is not a sqlite database, not even close")
        store = PersistentExtentStore(cache_path)
        assert store.recovered
        assert len(store) == 0
        # the evidence is preserved next to the fresh store
        assert cache_path.with_name(cache_path.name + ".corrupt").exists()
        store.put(("a1", "S1", "person"), "direct_extent", [1], 0, 1)
        store.close()
        assert not PersistentExtentStore(cache_path).recovered

    def test_format_version_mismatch_discards_the_file(self, cache_path):
        store = PersistentExtentStore(cache_path)
        store.put(("a1", "S1", "person"), "direct_extent", [1], 0, 1)
        store.close()
        connection = sqlite3.connect(cache_path)
        with connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'format'",
                (FORMAT_VERSION + 1,),
            )
        connection.close()
        reopened = PersistentExtentStore(cache_path)
        assert reopened.recovered
        assert len(reopened) == 0
        reopened.close()

    def test_format_2_file_restarts_the_runtime_cold(self, cache_path):
        """A file of the format that keyed entries by ``(op, attribute)``
        is moved aside, never misread: the runtime rescans and answers
        from the component database."""
        agent, database = build_single_agent()
        connection = sqlite3.connect(cache_path)
        with connection:
            connection.execute(
                "CREATE TABLE meta (key TEXT PRIMARY KEY, value INTEGER NOT NULL)"
            )
            connection.execute(
                "CREATE TABLE granules (agent TEXT NOT NULL,"
                " schema_name TEXT NOT NULL, class_name TEXT NOT NULL,"
                " shard TEXT NOT NULL, op TEXT NOT NULL, attribute TEXT NOT NULL,"
                " value BLOB NOT NULL, cache_generation INTEGER NOT NULL,"
                " source_generation INTEGER NOT NULL, PRIMARY KEY"
                " (agent, schema_name, class_name, shard, op, attribute))"
            )
            connection.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [("format", 2), ("generation", 0)],
            )
            # an empty extent stamped with the live version: restoring
            # it would answer nothing
            connection.execute(
                "INSERT INTO granules VALUES"
                " ('a1', 'S1', 'person', '', 'direct_extent', '', ?, 0, ?)",
                (pickle.dumps([]), database.version),
            )
        connection.close()
        runtime = FederationRuntime(agents={"a1": agent}, cache_path=cache_path)
        assert cache_path.with_name(cache_path.name + ".corrupt").exists()
        assert runtime.stats().counter("cache_restores") == 0
        answers = [i.oid for i in runtime.direct_extent("S1", "person")]
        assert answers == [i.oid for i in database.direct_extent("person")]
        assert agent.access_count == 1  # a cold scan, not a restore
        runtime.close()

        restarted_agent, _ = build_single_agent()
        restarted = FederationRuntime(
            agents={"a1": restarted_agent}, cache_path=cache_path
        )
        assert [i.oid for i in restarted.direct_extent("S1", "person")] == answers
        assert restarted_agent.access_count == 0  # the rewritten file restores
        restarted.close()

    def test_format_3_file_restarts_the_runtime_cold(self, cache_path):
        """A file of the format whose OIDs pickled as dataclasses is moved
        aside and the runtime starts cold, answering from the database."""
        agent, database = build_single_agent()
        store = PersistentExtentStore(cache_path)
        store.close()
        connection = sqlite3.connect(cache_path)
        with connection:
            connection.execute("UPDATE meta SET value = 3 WHERE key = 'format'")
            # an empty extent stamped with the live version: restoring
            # it would answer nothing
            connection.execute(
                "INSERT INTO granules VALUES"
                " ('a1', 'S1', 'person', '', 'direct_extent', ?, 0, ?)",
                (pickle.dumps([]), database.version),
            )
        connection.close()
        runtime = FederationRuntime(agents={"a1": agent}, cache_path=cache_path)
        assert runtime.cache._store.recovered
        assert cache_path.with_name(cache_path.name + ".corrupt").exists()
        assert runtime.stats().counter("cache_restores") == 0
        answers = [i.oid for i in runtime.direct_extent("S1", "person")]
        assert answers == [i.oid for i in database.direct_extent("person")]
        assert len(answers) == 3
        assert agent.access_count == 1  # a cold scan, not a restore
        runtime.close()

    def test_undecodable_value_row_is_dropped_not_fatal(self, cache_path):
        store = PersistentExtentStore(cache_path)
        store.put(("a1", "S1", "person"), "direct_extent", [1], 0, 1)
        store.put(("a1", "S1", "city"), "direct_extent", [2], 0, 1)
        store.close()
        connection = sqlite3.connect(cache_path)
        with connection:
            connection.execute(
                "UPDATE granules SET value = ? WHERE class_name = 'person'",
                (b"\x80garbage-pickle",),
            )
        connection.close()
        reopened = PersistentExtentStore(cache_path)
        entries = list(reopened.load())
        assert [key for key, *_ in entries] == [("a1", "S1", "city")]
        assert len(reopened) == 1  # the poisoned row was purged
        reopened.close()


class TestPersistentCache:
    def test_cache_spills_and_restores(self, cache_path):
        store = PersistentExtentStore(cache_path)
        cache = ExtentCache(store=store)
        request = ScanRequest("a1", "S1", "person")
        cache.put(request, [1, 2], source_generation=4)
        store.close()

        warm = ExtentCache(store=PersistentExtentStore(cache_path))
        assert warm.restored == 1
        assert warm.get(request, source_generation=4) == [1, 2]
        warm.close()

    def test_unobservable_source_stays_memory_only(self, cache_path):
        store = PersistentExtentStore(cache_path)
        cache = ExtentCache(store=store)
        request = ScanRequest("a1", "S1", "person")
        cache.put(request, [1], source_generation=None)
        assert cache.get(request) == [1]  # live hit as always
        assert len(store) == 0  # but never spilled: unverifiable on restart
        store.close()

    def test_source_version_mismatch_after_restart_misses(self, cache_path):
        cache = ExtentCache(store=PersistentExtentStore(cache_path))
        request = ScanRequest("a1", "S1", "person")
        cache.put(request, [1], source_generation=4)
        cache.close()
        warm = ExtentCache(store=PersistentExtentStore(cache_path))
        assert warm.get(request, source_generation=5) is MISS  # post-restart write
        warm.close()
        # the stale eviction wrote through: a third open restores nothing
        cold = ExtentCache(store=PersistentExtentStore(cache_path))
        assert cold.restored == 0
        cold.close()

    def test_bump_generation_is_persistent(self, cache_path):
        cache = ExtentCache(store=PersistentExtentStore(cache_path))
        request = ScanRequest("a1", "S1", "person")
        cache.put(request, [1], source_generation=4)
        cache.bump_generation()
        cache.close()
        warm = ExtentCache(store=PersistentExtentStore(cache_path))
        assert warm.generation == 1
        assert warm.restored == 0
        warm.close()

    def test_invalidate_and_clear_write_through(self, cache_path):
        store = PersistentExtentStore(cache_path)
        cache = ExtentCache(store=store)
        cache.put(ScanRequest("a1", "S1", "person"), [1], source_generation=4)
        cache.put(ScanRequest("a2", "S2", "city"), [2], source_generation=4)
        assert cache.invalidate(agent="a1") == 1
        assert len(store) == 1
        cache.clear()
        assert len(store) == 0
        store.close()

    def test_persistence_timer_and_restore_counter(self, cache_path):
        metrics = RuntimeMetrics()
        cache = ExtentCache(store=PersistentExtentStore(cache_path), metrics=metrics)
        cache.put(ScanRequest("a1", "S1", "person"), [1], source_generation=4)
        cache.close()
        agent, _ = build_single_agent()
        runtime = FederationRuntime(agents={"a1": agent}, cache_path=cache_path)
        stats = runtime.stats()
        assert stats.counter("cache_restores") == 1
        assert stats.timers["persistence"].count >= 1
        runtime.close()


class TestRuntimeWarmRestart:
    def test_restart_answers_without_one_agent_scan(self, cache_path):
        agent, _ = build_single_agent()
        runtime = FederationRuntime(agents={"a1": agent}, cache_path=cache_path)
        cold = [i.oid for i in runtime.direct_extent("S1", "person")]
        assert agent.access_count == 1
        runtime.close()

        restarted_agent, database = build_single_agent()
        restarted = FederationRuntime(
            agents={"a1": restarted_agent}, cache_path=cache_path
        )
        warm = [i.oid for i in restarted.direct_extent("S1", "person")]
        assert warm == cold
        assert restarted_agent.access_count == 0  # not a single agent scan
        assert restarted.stats().counter("cache_restores") == 1

        # a component write after the reopen forces an exact rescan
        database.insert("person", {"ssn#": "fresh"})
        assert len(restarted.direct_extent("S1", "person")) == len(cold) + 1
        assert restarted_agent.access_count == 1
        restarted.close()

    def test_sharded_restart_restores_every_shard_granule(self, cache_path):
        plan = ShardPlan(4)
        agent, _ = build_single_agent(instances=12)
        runtime = FederationRuntime(
            agents={"a1": agent}, shard_plan=plan, cache_path=cache_path
        )
        cold = {i.oid for i in runtime.direct_extent("S1", "person")}
        assert agent.access_count == 4
        runtime.close()

        restarted_agent, database = build_single_agent(instances=12)
        restarted = FederationRuntime(
            agents={"a1": restarted_agent}, shard_plan=plan, cache_path=cache_path
        )
        warm = {i.oid for i in restarted.direct_extent("S1", "person")}
        assert warm == cold
        assert restarted_agent.access_count == 0
        assert restarted.stats().counter("cache_restores") == 4

        database.insert("person", {"ssn#": "fresh"})
        assert len(restarted.direct_extent("S1", "person")) == len(cold) + 1
        assert restarted_agent.access_count == 4  # every shard re-scanned
        restarted.close()

    def test_restart_under_a_different_plan_misses_cleanly(self, cache_path):
        agent, _ = build_single_agent(instances=12)
        runtime = FederationRuntime(
            agents={"a1": agent}, shard_plan=ShardPlan(4, "hash"),
            cache_path=cache_path,
        )
        cold = {i.oid for i in runtime.direct_extent("S1", "person")}
        runtime.close()

        # the reopened runtime shards 3 ways: the persisted 4-shard
        # granules must not be served for 3-shard coordinates
        restarted_agent, _ = build_single_agent(instances=12)
        restarted = FederationRuntime(
            agents={"a1": restarted_agent}, shard_plan=ShardPlan(3, "hash"),
            cache_path=cache_path,
        )
        assert {i.oid for i in restarted.direct_extent("S1", "person")} == cold
        assert restarted_agent.access_count == 3  # all three shards cold
        restarted.close()

    def test_async_mode_shares_the_persistent_cache(self, cache_path):
        agent, _ = build_single_agent()
        runtime = FederationRuntime(
            agents={"a1": agent}, mode="async", cache_path=cache_path
        )
        cold = [i.oid for i in runtime.direct_extent("S1", "person")]
        runtime.close()

        restarted_agent, _ = build_single_agent()
        restarted = FederationRuntime(
            agents={"a1": restarted_agent}, mode="async", cache_path=cache_path
        )
        assert [i.oid for i in restarted.direct_extent("S1", "person")] == cold
        assert restarted_agent.access_count == 0
        restarted.close()


class TestDeltaWarmRestart:
    """Patched granules write through at their new version, so deltas
    applied before a shutdown are visible after recovery — with zero
    agent scans, because content-derived source versions are
    process-deterministic."""

    @staticmethod
    def _disk_fsm(data_dir):
        from repro.runtime import RuntimePolicy
        from repro.sources import load_source_federation
        from repro.workloads import source_fsm

        text, databases = load_source_federation(data_dir)
        fsm = source_fsm(databases, text)
        fsm.integrate_all()
        return fsm, databases, RuntimePolicy()

    def test_deltas_applied_before_shutdown_survive_with_zero_scans(
        self, tmp_path, cache_path
    ):
        from repro.workloads import generate_source_federation, write_source_directory

        dataset = generate_source_federation(
            people_per_schema=5, records_per_person=1, seed=9,
            schemas=("university", "hospital"),
        )
        data_dir = tmp_path / "federation"
        write_source_directory(dataset, data_dir, kinds="sqlite")

        fsm, databases, policy = self._disk_fsm(data_dir)
        runtime = fsm.use_runtime(policy, cache_path=str(cache_path))
        query = "person() -> ssn"
        cold = {row["ssn"] for row in fsm.query(query)}
        databases["university"].adapter.insert_row(
            "person",
            {"ssn": "restart-new", "name": "rn", "level": 2, "dept": "d0"},
        )
        patched = {row["ssn"] for row in fsm.query(query)}
        assert patched == cold | {"restart-new"}
        assert fsm.last_query_stats.counter("agent_scans") == 0
        assert fsm.last_query_stats.counter("granules_patched") > 0
        runtime.close()

        # "another process": fresh adapters, empty delta logs, same
        # files — the restored granules already carry the post-write
        # content version, so nothing is stale and nothing rescans
        restarted_fsm, _, restarted_policy = self._disk_fsm(data_dir)
        restarted = restarted_fsm.use_runtime(
            restarted_policy, cache_path=str(cache_path)
        )
        warm = {row["ssn"] for row in restarted_fsm.query(query)}
        assert warm == patched
        assert restarted_fsm.last_query_stats.counter("agent_scans") == 0
        assert restarted.stats().counter("cache_restores") > 0
        restarted.close()


class TestSessionAndFsmWiring:
    @staticmethod
    def _populated_session():
        built, text, databases = federated_cluster(schemas=3, per_class=4)
        session = FederationSession()
        for schema in built:
            session.add_database(databases[schema.name])
        session.declare(text)
        session.integrate()
        return session

    def test_enable_runtime_cache_path_round_trip(self, cache_path):
        session = self._populated_session()
        runtime = session.enable_runtime(cache_path=cache_path)
        cold = sorted(row["ssn#"] for row in session.query("person0() -> ssn#"))
        assert cold
        runtime.close()

        restarted = self._populated_session()
        warm_runtime = restarted.enable_runtime(cache_path=cache_path)
        warm = sorted(row["ssn#"] for row in restarted.query("person0() -> ssn#"))
        assert warm == cold
        assert restarted.last_query_stats.counter("agent_scans") == 0
        assert warm_runtime.stats().counter("cache_restores") > 0
        warm_runtime.close()

    def test_fsm_use_runtime_accepts_cache_path(self, cache_path):
        agent, _ = build_single_agent()
        fsm = FSM()
        fsm.register_agent(agent)
        runtime = fsm.use_runtime(cache_path=str(cache_path))
        assert runtime.cache.persistent
        runtime.close()
