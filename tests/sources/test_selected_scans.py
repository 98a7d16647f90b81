"""Selected scans: ``scan(relation, shard, where)`` at the adapter level.

A selection names attributes of the OO view and constants in the
component's own (local) vocabulary.  For every backend the selected
scan must equal the full scan filtered on the *translated* value — in
order, with the same OIDs — whatever mapping sits between the stored
column and the attribute.  sqlite additionally drops rows in SQL when a
mapping's preimage of the constant is finite; that narrowing must agree
with the Python-only filter row for row, including rows whose storage
class differs from the declared type.
"""

import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation.mappings import DefaultMapping, FunctionMapping, TripleMapping
from repro.federation.relational import Column
from repro.model.datatypes import DataType
from repro.runtime import ShardPlan
from repro.sources import SourceAdapter, SqliteSourceAdapter
from repro.sources.base import ColumnMapping, LinearMapping, RelationSpec, _AttributePlan
from repro.sources.sqlite_source import _sql_narrowing
from repro.workloads import build_memory_databases, generate_source_federation

from .conftest import DISK_KINDS, disk_databases

#: (relation, attribute, constants) per schema: default, fuzzy and
#: conversion mappings, NULL defaults, no-preimage and wrong types
SELECTIONS = {
    "university": [
        ("person", "level", (1, 3, 9, "3", True)),
        ("person", "name", ("unknown", "uni-name-4")),
        ("enrollment", "course", ("course5", "nope")),
        ("enrollment", "person_ssn", ("university-1",)),  # an aggregation
    ],
    "hospital": [
        ("person", "level", (2, 9, "L2", 2.0)),
        ("visit", "day", ("day7",)),
    ],
    "market": [
        ("person", "level", (4, 400, 9)),
        ("trade", "qty", (250, "250")),
    ],
}


def _dataset():
    return generate_source_federation(people_per_schema=40, records_per_person=2, seed=3)


def _filtered(full, attribute, constant):
    return [instance for instance in full if instance.get(attribute) == constant]


def _assert_selected_scans_filter(adapter, schema):
    specs = [ShardPlan(4, "hash").specs()[index] for index in range(4)] + [None]
    matched = 0
    for relation, attribute, constants in SELECTIONS[schema]:
        for shard in specs:
            full = adapter.scan(relation, shard)
            for constant in constants:
                selected = adapter.scan(relation, shard, ((attribute, constant),))
                if attribute == "person_ssn":  # FK: nothing is selected away
                    assert selected == full
                    continue
                expected = _filtered(full, attribute, constant)
                assert [i.oid for i in selected] == [i.oid for i in expected]
                assert selected == expected
                matched += len(selected)
    assert matched  # a vacuous filter proves nothing


class TestSelectedScanIsTheFilteredFullScan:
    @pytest.mark.parametrize("kind", DISK_KINDS)
    def test_disk_backends(self, kind):
        dataset = _dataset()
        with tempfile.TemporaryDirectory() as directory:
            databases = disk_databases(dataset, Path(directory), kinds=kind)
            for schema, database in databases.items():
                _assert_selected_scans_filter(database.adapter, schema)

    @pytest.mark.parametrize("deleted", [False, True])
    def test_memory_backend_with_tombstones(self, deleted):
        databases = build_memory_databases(_dataset())
        for schema, database in databases.items():
            if deleted:
                database.adapter.delete_row("person", 7)
                database.adapter.delete_row("person", 2)
            _assert_selected_scans_filter(database.adapter, schema)

    def test_store_passes_the_selection_through(self):
        database = build_memory_databases(_dataset())["university"]
        selected = database.direct_extent("person", None, (("level", 3),))
        assert selected == _filtered(database.direct_extent("person"), "level", 3)
        assert selected

    def test_two_selected_attributes_must_both_hold(self):
        database = build_memory_databases(_dataset())["hospital"]
        full = database.direct_extent("person")
        selected = database.direct_extent(
            "person", None, (("level", 2), ("name", "unknown"))
        )
        assert selected == [
            i for i in full if i.get("level") == 2 and i.get("name") == "unknown"
        ]


def _python_only(adapter, relation, shard, where):
    """The same scan with the storage-level narrowing switched off."""
    original = adapter.fetch_selected_rows
    adapter.fetch_selected_rows = lambda spec, tests: SourceAdapter.fetch_selected_rows(
        adapter, spec, tests
    )
    try:
        return adapter.scan(relation, shard, where)
    finally:
        adapter.fetch_selected_rows = original


class TestSqliteNarrowing:
    def test_sql_narrowing_equals_the_python_filter(self):
        dataset = _dataset()
        with tempfile.TemporaryDirectory() as directory:
            databases = disk_databases(dataset, Path(directory), kinds="sqlite")
            database = databases["university"]
            database.adapter.delete_row("person", 3)  # a rowid gap
            for schema, database in databases.items():
                adapter = database.adapter
                for relation, attribute, constants in SELECTIONS[schema]:
                    for shard in (None, ShardPlan(4).specs()[1]):
                        for constant in constants:
                            where = ((attribute, constant),)
                            assert adapter.scan(relation, shard, where) == _python_only(
                                adapter, relation, shard, where
                            )

    def test_rows_stored_outside_the_declared_type_still_match(self, tmp_path):
        """Columns without affinity keep what was inserted: an integer
        in a STRING column coerces to text, text in an INTEGER column to
        an int — SQL must pass those rows on to the exact test."""
        path = tmp_path / "loose.db"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE item (id, code, qty, grade)")
        connection.executemany(
            "INSERT INTO item VALUES (?, ?, ?, ?)",
            [
                (1, 5, 7, "g1"),
                (2, "5", "7", "g2"),
                (3, "6", 7.0, None),
                (4, None, None, "g1"),
                (5, b"5", 8, "g2"),
            ],
        )
        connection.commit()
        connection.close()
        spec = RelationSpec(
            "item",
            (
                Column("id", DataType.INTEGER),
                Column("code", DataType.STRING),
                Column("qty", DataType.INTEGER),
                Column("grade", DataType.STRING),
            ),
            primary_key="id",
        )
        adapter = SqliteSourceAdapter(
            path,
            relations=[spec],
            mappings={
                "item": (
                    ColumnMapping(
                        "grade",
                        mapping=TripleMapping.of((1, "g1", 1.0), (2, "g2", 1.0)),
                        default=0,
                        data_type=DataType.INTEGER,
                    ),
                )
            },
        )
        assert [i.oid.number for i in adapter.scan("item", None, (("qty", 7),))] == [
            1, 2, 3
        ]
        assert [i.oid.number for i in adapter.scan("item", None, (("grade", 1),))] == [
            1, 4
        ]
        # a default equal to the constant: the NULL row matches too
        assert [i.oid.number for i in adapter.scan("item", None, (("grade", 0),))] == [3]
        # the blob row cannot coerce to STRING: it reaches the exact
        # test, which raises exactly as a full scan does
        with pytest.raises(Exception, match="cannot coerce"):
            adapter.scan("item", None, (("code", "5"),))
        with pytest.raises(Exception, match="cannot coerce"):
            adapter.scan("item")

    def test_a_column_named_like_the_row_number_alias(self, tmp_path):
        path = tmp_path / "alias.db"
        connection = sqlite3.connect(path)
        connection.execute('CREATE TABLE t ("_number" INTEGER, label TEXT)')
        connection.executemany(
            "INSERT INTO t VALUES (?, ?)", [(10, "a"), (20, "b"), (30, "a")]
        )
        connection.commit()
        connection.close()
        adapter = SqliteSourceAdapter(path)
        selected = adapter.scan("t", None, (("label", "a"),))
        assert [(i.oid.number, i.get("_number")) for i in selected] == [(1, 10), (3, 30)]


def _plan(raw_type, mapping=None, default=None):
    return _AttributePlan("c", "c", raw_type, raw_type, mapping or DefaultMapping(), default)


class TestSqlNarrowingConditions:
    def test_default_mapping_on_identity_storage(self):
        clause, params = _sql_narrowing((_plan(DataType.STRING), "x"))
        assert params == ["x"] and "IN (?)" in clause and "'text'" in clause
        clause, params = _sql_narrowing((_plan(DataType.INTEGER), 3))
        assert params == [3] and "'integer'" in clause

    @pytest.mark.parametrize(
        "test",
        [
            (_plan(DataType.INTEGER), True),  # bool is not exactly int
            (_plan(DataType.INTEGER), "3"),
            (_plan(DataType.INTEGER), 3.0),
            (_plan(DataType.INTEGER), 2**63),  # sqlite cannot bind it
            (_plan(DataType.REAL), 1.5),  # no identity storage class
            (_plan(DataType.STRING, default="x"), "x"),  # NULLs match
            (_plan(DataType.INTEGER, LinearMapping(a=0.01, as_int=True)), 3),
            (_plan(DataType.INTEGER, FunctionMapping(lambda v: v)), 3),
            (_plan(DataType.STRING, TripleMapping.of((1, 7, 1.0))), 1),
        ],
    )
    def test_no_sql_narrowing(self, test):
        assert _sql_narrowing(test) is None

    def test_triple_mapping_preimage_and_an_empty_one(self):
        mapping = TripleMapping.of((1, "L1", 1.0), (1, "one", 0.9), (2, "L2", 1.0))
        clause, params = _sql_narrowing((_plan(DataType.STRING, mapping), 1))
        assert params == ["L1", "one"] and "IN (?, ?)" in clause
        clause, params = _sql_narrowing((_plan(DataType.STRING, mapping), 9))
        assert params == [] and clause.startswith("(0 OR")


class TestTripleMappingPreimage:
    def test_best_match_and_threshold(self):
        mapping = TripleMapping.of(
            (1, "a", 1.0), (1, "b", 0.6), (2, "b", 0.9), (3, "c", 0.3), threshold=0.5
        )
        assert mapping.preimage(1) == ("a",)  # "b" translates to 2 (0.9 > 0.6)
        assert mapping.preimage(2) == ("b",)
        assert mapping.preimage(3) == ()  # below the threshold
        assert mapping.preimage(4) == ()

    @settings(max_examples=50, deadline=None)
    @given(
        triples=st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from("abcdef"),
                st.floats(0.0, 1.0),
            ),
            max_size=8,
        ),
        threshold=st.floats(0.0, 1.0),
        value=st.integers(0, 5),
    )
    def test_preimage_is_exact(self, triples, threshold, value):
        mapping = TripleMapping(tuple(triples), threshold)
        preimage = mapping.preimage(value)
        assert len(set(preimage)) == len(preimage)
        for candidate in "abcdefg":
            assert (candidate in preimage) == (mapping.translate(candidate) == value)
