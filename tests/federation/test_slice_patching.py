"""Patched lifted slices ≡ fresh lifts of the patched extent.

A delta chain that touches a cached direct extent republishes each of
the entry's lifted slices as a copy-on-write patched copy instead of
dropping it.  For *any* interleaving of inserts, updates and deletes —
several records for one OID in one chain, NULL attributes, §3 fuzzy and
conversion mappings at the adapter and at lift time — every slice the
cache holds must equal a fresh lift of the extent it is attached to:
the same facts per predicate, the same ``len``, and the same index
contents for every ``(predicate, position)`` index it has built.  Runs
across memory and sqlite sources and threaded and async engines.  A
slice taken before a write keeps its facts and index buckets after it.
"""

import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.federation.mappings import FunctionMapping, TripleMapping
from repro.logic import FactStore
from repro.runtime import RuntimePolicy
from repro.service import stats_to_dict
from repro.sources import load_source_federation
from repro.workloads import (
    build_memory_databases,
    generate_source_federation,
    source_fsm,
    write_source_directory,
)

SCHEMAS = ("university", "hospital", "market")
BULK = {"university": "enrollment", "hospital": "visit", "market": "trade"}

QUERIES = (
    "person() -> ssn, name, level",
    "person(level=2) -> ssn, name",
    "enrollment() -> course, mark, person_ssn",
    "visit() -> day, cost",
    "trade() -> symbol, qty",
)


def _level(schema, level):
    """A stored level: the §3 adapter mappings read hospital's codes
    through a fuzzy triple set (``L9`` matches nothing) and market's
    basis points through a linear conversion; None is a NULL column."""
    if level is None:
        return None
    if schema == "hospital":
        return f"L{level}"
    if schema == "market":
        return level * 100
    return level


def _level_column(schema):
    return {"hospital": "lvl", "market": "level_bp"}.get(schema, "level")


def _bulk_row(schema, key, index, person):
    first, second = {
        "university": ("course", "mark"),
        "hospital": ("day", "cost"),
        "market": ("symbol", "qty"),
    }[schema]
    return {
        "id": key,
        "person_ssn": f"{schema}-{person}",
        first: f"{first}{index % 7}",
        second: None if index % 5 == 0 else index,
    }


class Writer:
    """Writes against one schema's adapter, tracking live row numbers:
    tombstoned slots for memory, storage positions for sqlite."""

    def __init__(self, adapter, schema, counts, positional):
        self.adapter = adapter
        self.schema = schema
        self.positional = positional
        self.live = {relation: list(range(1, n + 1)) for relation, n in counts.items()}
        self.slots = dict(counts)
        self.inserted = 0

    def _number(self, relation, index):
        live = self.live[relation]
        return live[index % len(live)] if live else None

    def insert(self, relation, row):
        if self.positional:
            self.adapter.insert_row(relation, row)
        else:
            self.adapter.insert(relation, row)
        self.slots[relation] += 1
        self.live[relation].append(
            len(self.live[relation]) + 1 if self.positional else self.slots[relation]
        )

    def update(self, relation, index, changes):
        number = self._number(relation, index)
        if number is not None:
            self.adapter.update_row(relation, number, changes)
        return number

    def delete(self, relation, index):
        number = self._number(relation, index)
        if number is None:
            return
        self.adapter.delete_row(relation, number)
        if self.positional:  # later rows move up one position
            self.live[relation].pop()
        else:
            self.live[relation].remove(number)

    # one generated operation -------------------------------------------
    def person_row(self, index, level, null_name):
        self.inserted += 1
        return {
            "ssn": f"{self.schema}-w{self.inserted}",
            "name": None if null_name else f"new-{index}",
            _level_column(self.schema): _level(self.schema, level),
        }

    def apply(self, op, index, level, null_name):
        bulk = BULK[self.schema]
        if op == "insert_person":
            self.insert("person", self.person_row(index, level, null_name))
        elif op == "update_person":
            self.update(
                "person",
                index,
                {
                    "name": None if null_name else f"upd-{index}",
                    _level_column(self.schema): _level(self.schema, level),
                },
            )
        elif op == "delete_person":
            self.delete("person", index)
        elif op == "insert_bulk":
            self.inserted += 1
            key = 10_000 + self.inserted
            self.insert(bulk, _bulk_row(self.schema, key, index, index % 3))
        elif op == "update_bulk":
            self.update(bulk, index, {"person_ssn": f"{self.schema}-{index % 3}"})
        elif op == "delete_bulk":
            self.delete(bulk, index)
        elif op == "churn":
            # insert -> update -> update -> delete of one OID, one chain
            self.inserted += 1
            key = 10_000 + self.inserted
            self.insert(bulk, _bulk_row(self.schema, key, index, 0))
            index = len(self.live[bulk]) - 1
            self.update(bulk, index, {"person_ssn": f"{self.schema}-1"})
            self.update(bulk, index, {"person_ssn": None})
            self.delete(bulk, index)
        elif op == "update_twice":
            self.update("person", index, {"name": f"first-{index}"})
            self.update(
                "person", index, {_level_column(self.schema): _level(self.schema, level)}
            )
        else:
            raise AssertionError(op)


WRITES = (
    "insert_person",
    "update_person",
    "delete_person",
    "insert_bulk",
    "update_bulk",
    "delete_bulk",
    "churn",
    "update_twice",
)

OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(WRITES + ("read",) * 3),
        st.integers(min_value=0, max_value=99),
        st.sampled_from(SCHEMAS),
        st.one_of(st.none(), st.integers(min_value=1, max_value=9)),
        st.booleans(),
    ),
    min_size=2,
    max_size=10,
)


def _rows_key(rows):
    return sorted(sorted(map(repr, row.items())) for row in rows)


def _bucket_sets(index):
    return {
        value: set(bucket) if isinstance(bucket, set) else {bucket}
        for value, bucket in index.items()
    }


def _build_every_index(store):
    for predicate, facts in list(store._facts.items()):
        for position in range(max(len(values) for values in facts)):
            store.index(predicate, position)


def _slices(runtime):
    """Every (entry value, slice, lifter) the cache holds."""
    for granule in runtime.cache._granules.values():
        for entry in granule.values():
            if entry.slices is not None:
                for store, lift in entry.slices[1].values():
                    yield entry.value, store, lift


def assert_slices_match_fresh_lifts(runtime):
    checked = 0
    for value, store, lift in _slices(runtime):
        fresh = lift(value)
        assert store._facts == fresh._facts
        assert len(store) == len(fresh)
        for predicate, position in list(store._index):
            assert _bucket_sets(store.index(predicate, position)) == _bucket_sets(
                fresh.index(predicate, position)
            ), (predicate, position)
        checked += 1
    return checked


class Federation:
    """A three-schema federation (memory or sqlite) with a cached
    runtime, lift-time mappings registered, and a runtime-less
    reference FSM over the same stores."""

    def __init__(self, backend, mode, directory, people=4):
        dataset = generate_source_federation(
            people_per_schema=people, records_per_person=2, seed=7, schemas=SCHEMAS
        )
        if backend == "memory":
            self.databases = build_memory_databases(dataset)
            text = dataset.assertions
        else:
            write_source_directory(dataset, directory, kinds="sqlite")
            text, self.databases = load_source_federation(directory)
        counts = {"person": people}
        self.writers = {
            schema: Writer(
                self.databases[schema].adapter,
                schema,
                dict(counts, **{BULK[schema]: people * 2}),
                positional=backend == "sqlite",
            )
            for schema in SCHEMAS
        }
        self.fsm = source_fsm(self.databases, text)
        self.reference = source_fsm(self.databases, text)
        for fsm in (self.fsm, self.reference):
            # a fuzzy lift-time mapping (levels 7-9 match nothing) and a
            # conversion, on top of the adapters' own §3 mappings
            fsm.mappings.register(
                "level",
                "university",
                "level",
                TripleMapping.of(*((lv, lv, 0.9) for lv in range(1, 7)), threshold=0.5),
            )
            fsm.mappings.register(
                "name", "market", "name", FunctionMapping(str.upper, "upper")
            )
            fsm.integrate_all()
        self.runtime = self.fsm.use_runtime(RuntimePolicy(max_workers=2), mode=mode)

    def read(self, text):
        assert _rows_key(self.fsm.query(text)) == _rows_key(
            self.reference.query(text)
        ), text

    def warm(self):
        for text in QUERIES:
            self.read(text)
        for _value, store, _lift in _slices(self.runtime):
            _build_every_index(store)

    def close(self):
        self.runtime.close()


def _run(operations, backend, mode):
    with tempfile.TemporaryDirectory() as directory:
        federation = Federation(backend, mode, directory)
        try:
            federation.warm()
            for op, index, schema, level, null_name in operations:
                if op == "read":
                    federation.read(QUERIES[index % len(QUERIES)])
                    assert_slices_match_fresh_lifts(federation.runtime)
                else:
                    federation.writers[schema].apply(op, index, level, null_name)
            for text in QUERIES:
                federation.read(text)
            assert assert_slices_match_fresh_lifts(federation.runtime) > 0
        finally:
            federation.close()


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
@pytest.mark.parametrize("mode", ("threaded", "async"))
class TestPatchedSlicesEqualFreshLifts:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(operations=OPERATIONS)
    def test_every_interleaving(self, operations, backend, mode):
        _run(operations, backend, mode)


@pytest.mark.parametrize("backend", ("memory", "sqlite"))
def test_a_slice_taken_before_a_write_keeps_its_facts_and_buckets(tmp_path, backend):
    federation = Federation(backend, "threaded", tmp_path)
    try:
        federation.warm()
        before = {
            id(store): (
                store,
                {predicate: set(facts) for predicate, facts in store._facts.items()},
                {key: _bucket_sets(index) for key, index in store._index.items()},
            )
            for _value, store, _lift in _slices(federation.runtime)
        }
        writer = federation.writers["university"]
        writer.apply("update_person", 1, 3, True)
        writer.apply("insert_bulk", 2, None, False)
        writer.apply("update_bulk", 3, None, False)
        federation.read(QUERIES[0])
        stats = federation.fsm.last_query_stats
        assert stats.counter("lift_slices_patched") >= 2
        assert stats.counter("lift_slices_built") == 0
        patched = 0
        for store, facts, indexes in before.values():
            assert store._facts == facts
            for key, buckets in indexes.items():
                assert _bucket_sets(store._index[key]) == buckets
        for _value, store, _lift in _slices(federation.runtime):
            patched += id(store) not in before
        assert patched >= 2
        assert_slices_match_fresh_lifts(federation.runtime)
    finally:
        federation.close()


def test_a_mixed_run_without_fallbacks_builds_and_drops_no_slice(tmp_path):
    """Row inserts into a relation no other relation references, and
    level updates: every write patches, so after warm-up no slice is
    built or dropped; the patch count reaches ``--stats`` and ``/stats``."""
    federation = Federation("sqlite", "threaded", tmp_path)
    try:
        federation.warm()
        before = federation.runtime.stats()
        for step in range(12):
            writer = federation.writers[SCHEMAS[step % 3]]
            if step % 2:
                writer.apply("update_person", step, step % 5 + 1, False)
            else:
                writer.apply("insert_bulk", step, None, False)
            federation.read(QUERIES[step % len(QUERIES)])
            federation.read(QUERIES[0])
        run = federation.runtime.stats() - before
        assert run.counter("fallback_invalidations") == 0
        assert run.counter("lift_slices_built") == 0
        assert run.counter("lift_slices_dropped") == 0
        patched = run.counter("lift_slices_patched")
        assert patched > 0
        assert f"lift_slices_patched    {patched}" in run.describe()  # CLI --stats
        assert stats_to_dict(run)["counters"]["lift_slices_patched"] == patched
        assert_slices_match_fresh_lifts(federation.runtime)
    finally:
        federation.close()


FACTS = st.sets(
    st.tuples(st.integers(0, 5), st.integers(0, 3)) | st.tuples(st.integers(0, 5)),
    max_size=12,
)


def _store(facts_by_predicate):
    store = FactStore()
    for predicate, facts in facts_by_predicate.items():
        for values in facts:
            store.add(predicate, values)
    return store


@settings(max_examples=200, deadline=None)
@given(
    old=st.dictionaries(st.sampled_from("pqr"), FACTS, max_size=3),
    removed=st.dictionaries(st.sampled_from("pqr"), FACTS, max_size=3),
    added=st.dictionaries(st.sampled_from("pqr"), FACTS, max_size=3),
    built=st.lists(st.tuples(st.sampled_from("pqrs"), st.integers(0, 2)), max_size=6),
)
def test_fact_store_patched_is_remove_then_add(old, removed, added, built):
    """``patched`` ≡ ``(old − removed) ∪ added`` with every index it
    carries equal to a fresh build, and the old store untouched."""
    store = _store(old)
    for predicate, position in built:
        store.index(predicate, position)
    snapshot = (
        {predicate: set(facts) for predicate, facts in store._facts.items()},
        {key: _bucket_sets(index) for key, index in store._index.items()},
    )
    result = store.patched(_store(removed), _store(added))
    expected = {}
    for predicate in set(old) | set(added):
        facts = (old.get(predicate, set()) - removed.get(predicate, set())) | added.get(
            predicate, set()
        )
        if facts:
            expected[predicate] = facts
    assert result._facts == expected
    assert len(result) == sum(map(len, expected.values()))
    fresh = _store(expected)
    for predicate, position in list(result._index):
        assert _bucket_sets(result.index(predicate, position)) == _bucket_sets(
            fresh.index(predicate, position)
        )
    assert store._facts == snapshot[0]
    assert {key: _bucket_sets(index) for key, index in store._index.items()} == snapshot[1]
