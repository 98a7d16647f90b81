"""Selection pushdown parity: a narrowed scan never changes an answer.

On a runtime with the extent cache off, the planner pushes a query's
``attribute = constant`` equalities into the scans of the queried
class's origins, in each component's local vocabulary, and the source
adapters materialize only the rows whose translated value matches.
These tests pin that the narrowed answers equal the unnarrowed ones
(the runtime-less FSM over the same stores):

* across sqlite, CSV, JSON and memory sources — memory and sqlite also
  after deletes (tombstoned numbers, rowid gaps);
* through default, fuzzy (``TripleMapping``) and conversion
  (``LinearMapping``) column mappings;
* for constants with no preimage, wrong-typed constants, NULL columns
  filled by a default, and dangling foreign keys;
* over native object databases, which keep only the instances holding
  a matching value element;
* unsharded and over 4 hash shards, threaded and async.

They also pin when the planner must *not* narrow: a rule reading the
queried class, an origin of a subclass, and a non-default registry
mapping each leave that origin full; a cache-on runtime never sends a
narrowed request; and a narrowed scan never enters the cache.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.federation import FSM, FSMAgent
from repro.federation.mappings import FunctionMapping
from repro.federation.relational import Column
from repro.model.datatypes import DataType
from repro.runtime import InProcessTransport, RuntimePolicy, ScanRequest, ShardPlan
from repro.sources import load_source_federation
from repro.sources.base import MemorySourceAdapter, RelationSpec
from repro.workloads import (
    build_memory_databases,
    federated_cluster,
    generate_source_federation,
    genealogy,
    source_fsm,
    write_source_directory,
)

KINDS = ("sqlite", "csv", "json", "memory", "memory-deleted", "sqlite-deleted")

QUERIES = (
    # level: default (university), fuzzy L1..L5 (hospital), basis points
    # (market) — one integrated constant, three local vocabularies
    "person(level=3) -> ssn, name",
    "person(level=9) -> ssn",  # no preimage under any mapping
    "person(level='3') -> ssn",  # wrong-typed constant matches nothing
    "person(name='unknown') -> ssn",  # NULL names filled by the default
    "person(ssn='hospital-2') -> name, level",
    "person(level=2, name='unknown') -> ssn",
    # FK columns resolve to OIDs; deleted people leave them dangling
    "enrollment(course='course5') -> mark, person_ssn",
    "visit(day='day7') -> cost, person_ssn",
    "trade(qty=250) -> symbol",
)


def _canon(rows):
    return sorted(
        tuple(sorted((key, repr(value)) for key, value in row.items()))
        for row in rows
    )


def _dataset(people=12, seed=5):
    return generate_source_federation(
        people_per_schema=people, records_per_person=3, seed=seed
    )


def _delete_some(databases, kind):
    """Delete a few people and bulk rows of every schema: memory keeps
    tombstoned numbers, sqlite renumbers over rowid gaps, and the bulk
    rows that pointed at a deleted person now dangle."""
    for database in databases.values():
        adapter = database.adapter
        bulk = next(
            spec.name for spec in adapter.relations() if spec.foreign_keys
            and spec.foreign_keys[0].target_relation == "person"
            and spec.name != "person"
        )
        # later numbers first: a sqlite delete renumbers the rows after it
        for relation, number in ((bulk, 4), ("person", 5), ("person", 2)):
            adapter.delete_row(relation, number)


def _databases(dataset, kind, directory):
    if kind.startswith("memory"):
        databases = build_memory_databases(dataset)
    else:
        write_source_directory(dataset, directory, kinds=kind.split("-")[0])
        _, databases = load_source_federation(directory)
    if kind.endswith("-deleted"):
        _delete_some(databases, kind)
    return databases


def _fsm(databases, assertions):
    fsm = source_fsm(databases, assertions)
    fsm.integrate_all()
    return fsm


def _runtime_answers(fsm, queries, **options):
    """Answers through a runtime, and how many scans it narrowed."""
    runtime = fsm.use_runtime(RuntimePolicy(cache_enabled=False), **options)
    try:
        answers = {query: _canon(fsm.query(query)) for query in queries}
        narrowed = runtime.stats().counter("scans_narrowed")
        assert len(runtime.cache) == 0  # nothing narrowed was cached
    finally:
        runtime.close()
        fsm.detach_runtime()
    return answers, narrowed


def _assert_parity(fsm, queries=QUERIES, **options):
    expected = {query: _canon(fsm.query(query)) for query in queries}
    assert any(expected.values())  # a vacuous parity proves nothing
    answers, narrowed = _runtime_answers(fsm, queries, **options)
    assert answers == expected
    assert narrowed > 0


class TestNarrowedAnswersEqualFullAnswers:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shards", [None, 4])
    @pytest.mark.parametrize("mode", ["threaded", "async"])
    def test_backends_shards_and_engines(self, kind, shards, mode):
        dataset = _dataset()
        with tempfile.TemporaryDirectory() as directory:
            fsm = _fsm(_databases(dataset, kind, Path(directory)), dataset.assertions)
            plan = ShardPlan(shards, "hash") if shards else None
            _assert_parity(fsm, mode=mode, shard_plan=plan)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        people=st.integers(6, 12),  # _delete_some removes person 5
        seed=st.integers(0, 999),
        kind=st.sampled_from(KINDS),
        level=st.sampled_from([1, 2, 3, 4, 5, 9, "3", 3.0, True]),
        course=st.integers(0, 70),
        shards=st.sampled_from([None, 4]),
    )
    def test_random_federations_and_constants(
        self, people, seed, kind, level, course, shards
    ):
        dataset = _dataset(people=people, seed=seed)
        queries = (
            f"person(level={level!r}) -> ssn, name",
            f"enrollment(course='course{course}') -> mark, person_ssn",
        )
        with tempfile.TemporaryDirectory() as directory:
            fsm = _fsm(_databases(dataset, kind, Path(directory)), dataset.assertions)
            expected = {query: _canon(fsm.query(query)) for query in queries}
            answers, narrowed = _runtime_answers(
                fsm, queries, shard_plan=ShardPlan(shards) if shards else None
            )
        assert answers == expected
        assert narrowed > 0


class TestObjectDatabasesNarrow:
    @pytest.mark.parametrize("shards", [None, 4])
    def test_narrowed_extent_drops_what_cannot_match(self, shards):
        _, assertions, databases = federated_cluster(schemas=3, per_class=8)
        store = databases["S1"]
        store.insert("person0", {"ssn#": "S1-null", "name": "nameless"})
        where = (("grade", 2),)
        full = store.direct_extent("person0")
        narrowed = store.direct_extent("person0", where=where)
        assert 0 < len(narrowed) < len(full)
        assert narrowed == [i for i in full if i.get("grade") == 2]
        for spec in ShardPlan(4).specs():
            assert store.direct_extent("person0", spec, where) == [
                i for i in spec.filter_instances(full) if i.get("grade") == 2
            ]
        _assert_parity(
            _fsm(databases, assertions),
            (
                "person0(grade=2) -> ssn#",
                "person0(grade=9) -> ssn#",  # no instance holds it
                "person0(grade='2') -> ssn#",  # wrong-typed constant
                "person0(grade=1, name='nameless') -> ssn#",  # NULL grade
            ),
            shard_plan=ShardPlan(shards) if shards else None,
        )


class TestWhatStaysFull:
    def test_registry_mapping_leaves_its_origin_full(self):
        dataset = _dataset()
        fsm = _fsm(build_memory_databases(dataset), dataset.assertions)
        # market's integrated level now passes through an FSM-side
        # function: the stored value is no longer the value lifted
        fsm.mappings.register(
            "level", "market", "level", FunctionMapping(lambda v: 6 - v, "6 - x")
        )
        query = "person(level=2) -> ssn"
        runtime = fsm.use_runtime(RuntimePolicy(cache_enabled=False))
        try:
            rows = fsm.query(query)
            plan = runtime.last_plan
        finally:
            runtime.close()
            fsm.detach_runtime()
        assert plan.unnarrowed == {("market", "person"): "registry mapping"}
        assert set(plan.selections) == {("university", "person"), ("hospital", "person")}
        assert "market.person (registry mapping)" in plan.describe()
        assert _canon(rows) == _canon(fsm.query(query))
        assert any(row["ssn"].startswith("market-") for row in rows)

    def test_a_rule_reading_the_class_leaves_its_origin_full(self):
        _, _, assertions, databases = genealogy()
        fsm = FSM()
        for name, database in databases.items():
            agent = FSMAgent(f"agent-{name}")
            agent.host_object_database(database)
            fsm.register_agent(agent)
        fsm.declare(assertions)
        fsm.integrate_all()
        # the uncle rule's body joins parent: narrowing parent's scan
        # would starve the rule of the parents the query does not name
        query = "parent(name='Mary') -> Pssn#"
        expected = _canon(fsm.query(query))
        runtime = fsm.use_runtime(RuntimePolicy(cache_enabled=False))
        try:
            assert _canon(fsm.query(query)) == expected
            plan = runtime.last_plan
        finally:
            runtime.close()
        assert plan.selections == {}
        assert plan.unnarrowed == {("S1", "parent"): "rule reads parent"}

    def test_a_subclass_origin_scans_in_full(self):
        def store(name, relation):
            spec = RelationSpec(
                relation,
                (Column("ssn", DataType.STRING), Column("level", DataType.INTEGER)),
            )
            rows = [{"ssn": f"{name}{i}", "level": i % 3} for i in range(6)]
            return MemorySourceAdapter(
                name, {relation: rows}, [spec], agent=f"agent-{name}"
            ).database()

        fsm = _fsm(
            {"reg": store("reg", "person"), "uni": store("uni", "student")},
            "assertion uni.student <= reg.person\n"
            "  attr uni.student.ssn == reg.person.ssn\n"
            "  attr uni.student.level == reg.person.level\nend",
        )
        assert ("student", "person") in fsm.integrated.is_a_links()
        query = "person(level=1) -> ssn"
        expected = _canon(fsm.query(query))
        runtime = fsm.use_runtime(RuntimePolicy(cache_enabled=False))
        try:
            assert _canon(fsm.query(query)) == expected
            plan = runtime.last_plan
        finally:
            runtime.close()
        assert plan.selections == {("reg", "person"): (("level", 1),)}
        assert ("uni", "student") in plan.pairs  # scanned, but in full


class _RecordingTransport(InProcessTransport):
    def __init__(self, *args):
        super().__init__(*args)
        self.selections = []

    def perform(self, request):
        if isinstance(request, ScanRequest):
            self.selections.append(request.where)
        return super().perform(request)


class TestTheCacheNeverHoldsANarrowedScan:
    @pytest.mark.parametrize("shards", [None, 4])
    def test_a_cache_on_runtime_never_narrows(self, shards):
        dataset = _dataset()
        fsm = _fsm(build_memory_databases(dataset), dataset.assertions)
        expected = {query: _canon(fsm.query(query)) for query in QUERIES}
        transport = _RecordingTransport(fsm._agents, fsm._schema_host)
        answers, narrowed = {}, 0
        runtime = fsm.use_runtime(
            transport=transport,
            shard_plan=ShardPlan(shards) if shards else None,
        )
        try:
            for query in QUERIES:
                answers[query] = _canon(fsm.query(query))
                assert "cache on" in runtime.last_plan.describe()
            narrowed = runtime.stats().counter("scans_narrowed")
            # selections handed straight to the runtime are dropped too
            runtime.scan_extents(
                [("university", "person")],
                selections={("university", "person"): (("level", 3),)},
            )
            assert len(runtime.cache) > 0
        finally:
            runtime.close()
        assert answers == expected
        assert narrowed == 0
        assert transport.selections and not any(transport.selections)

    def test_a_narrowed_scan_never_enters_the_cache(self):
        dataset = _dataset()
        fsm = _fsm(build_memory_databases(dataset), dataset.assertions)
        runtime = fsm.use_runtime(RuntimePolicy(cache_enabled=False))
        try:
            extents = runtime.scan_extents(
                [("university", "person")],
                selections={("university", "person"): (("level", 3),)},
            )
            assert runtime.stats().counter("scans_narrowed") == 1
            assert len(runtime.cache) == 0
        finally:
            runtime.close()
        full = fsm.database("university").direct_extent("person")
        assert [instance.oid for instance in extents[("university", "person")]] == [
            instance.oid for instance in full if instance.get("level") == 3
        ]
