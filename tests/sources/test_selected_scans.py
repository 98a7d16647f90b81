"""Selected scans: ``scan(relation, shard, where)`` at the adapter level.

A selection names attributes of the OO view and constants in the
component's own (local) vocabulary.  For every backend the selected
scan must equal the full scan filtered on the *translated* value — in
order, with the same OIDs — whatever mapping sits between the stored
column and the attribute.  sqlite additionally drops rows in SQL when a
mapping's preimage of the constant is bounded; that narrowing must
agree with the Python-only filter row for row, including rows whose
storage class differs from the declared type, and must keep the tuple
numbers of an unselected scan across writes that renumber rows.
"""

import sqlite3
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SourceConfigError, SourceUnavailableError
from repro.federation.mappings import DefaultMapping, FunctionMapping, TripleMapping
from repro.federation.relational import Column
from repro.model.datatypes import DataType
from repro.runtime import ShardPlan
from repro.sources import SourceAdapter, SqliteSourceAdapter
from repro.sources.base import ColumnMapping, LinearMapping, RelationSpec, _AttributePlan
from repro.sources.sqlite_source import _sql_narrowing
from repro.workloads import build_memory_databases, generate_source_federation

from .conftest import DISK_KINDS, disk_databases

#: values of a column without affinity: integers (small, around ±2**53,
#: the int64 edges) and rows stored as text, real or NULL that coerce
STORED = st.one_of(
    st.integers(-1000, 1000),
    st.integers(2**53 - 3, 2**53 + 3),
    st.integers(-(2**53) - 3, -(2**53) + 3),
    st.sampled_from([2**63 - 1, -(2**63)]),
    st.builds(str, st.integers(-60, 60)),
    st.builds(float, st.integers(-60, 60)),
    st.none(),
)

#: slopes: positive, negative, tiny, integral; a few land products on
#: .5 rounding boundaries (0.5·odd, 0.01·250)
SLOPES = st.one_of(
    st.sampled_from([0.01, -0.01, 0.5, -0.5, 2.5, 1e-9, -1e-9, 1e-300, 3, -2]),
    st.floats(-1e6, 1e6, allow_nan=False).filter(lambda a: a != 0),
)
OFFSETS = st.one_of(
    st.sampled_from([0, 0.5, -0.5, 0.25, 3, 1e6]),
    st.floats(-1e6, 1e6, allow_nan=False),
)

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

    def test_string_narrowing_passes_every_non_text_value_on(self, tmp_path):
        """Integers and reals in a STRING column without affinity coerce
        to text; SQL must hand them to the exact test."""
        path = tmp_path / "mixed.db"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE item (id, code)")
        connection.executemany(
            "INSERT INTO item VALUES (?, ?)",
            enumerate([5, 5.0, 5.5, "5", "5.5", None, "x", -3, "-3"]),
        )
        connection.commit()
        connection.close()
        spec = RelationSpec(
            "item", (Column("id", DataType.INTEGER), Column("code", DataType.STRING))
        )
        adapter = SqliteSourceAdapter(path, relations=[spec])
        for constant in ("5", "5.0", "5.5", "-3", "x", "y"):
            where = (("code", constant),)
            selected = adapter.scan("item", None, where)
            assert selected == _python_only(adapter, "item", None, where)
            assert selected or constant == "y"

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        data=st.data(),
        stored=st.lists(STORED, min_size=1, max_size=12),
        a=SLOPES,
        b=OFFSETS,
        as_int=st.booleans(),
        default=st.sampled_from([None, 7]),
    )
    def test_linear_mapping_narrowing_equals_the_python_filter(
        self, data, stored, a, b, as_int, default
    ):
        mapping = LinearMapping(a=a, b=b, as_int=as_int)
        mapped = [mapping.translate(x) for x in stored if type(x) is int]
        constant = data.draw(
            st.one_of(
                st.sampled_from(mapped or [0]),
                st.sampled_from(mapped or [0]).map(lambda c: c + 0.5),
                st.sampled_from(mapped or [0]).map(lambda c: c - 1),
                st.integers(-10, 10),
                st.sampled_from([2**53, -(2**53), 7]),
            )
        )
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "linear.db"
            connection = sqlite3.connect(path)
            connection.execute("CREATE TABLE t (id, x)")
            connection.executemany(
                "INSERT INTO t VALUES (?, ?)", list(enumerate(stored))
            )
            connection.commit()
            connection.close()
            spec = RelationSpec(
                "t", (Column("id", DataType.INTEGER), Column("x", DataType.INTEGER))
            )
            adapter = SqliteSourceAdapter(
                path,
                relations=[spec],
                mappings={
                    "t": (
                        ColumnMapping(
                            "x",
                            mapping=mapping,
                            default=default,
                            data_type=DataType.INTEGER if as_int else DataType.REAL,
                        ),
                    )
                },
            )
            where = (("x", constant),)
            for shard in (None, ShardPlan(2).specs()[0]):
                assert adapter.scan("t", shard, where) == _python_only(
                    adapter, "t", shard, where
                )

    def test_a_column_named_rowid_does_not_shadow_storage_order(self, tmp_path):
        """Rows number by the real rowid even when a column takes its
        name (duplicate values must not collide in the number map)."""
        path = tmp_path / "shadow.db"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE t (rowid TEXT, label TEXT)")
        connection.execute('CREATE TABLE u ("ROWID" TEXT, "_rowid_" TEXT, label TEXT)')
        for table in ("t", "u"):
            columns = "rowid, label" if table == "t" else "rowid, _rowid_, label"
            for key, label in (("z", "x"), ("a", "y"), ("m", "x"), ("a", "x")):
                values = (key, label) if table == "t" else (key, key, label)
                connection.execute(
                    f"INSERT INTO {table} ({columns}) VALUES "
                    f"({', '.join('?' for _ in values)})",
                    values,
                )
        connection.commit()
        connection.close()
        adapter = SqliteSourceAdapter(path)
        for table, key in (("t", "rowid"), ("u", "ROWID")):
            full = adapter.scan(table)
            assert [(i.oid.number, i.get(key)) for i in full] == [
                (1, "z"), (2, "a"), (3, "m"), (4, "a")
            ]
            selected = adapter.scan(table, None, (("label", "x"),))
            assert selected == _filtered(full, "label", "x")
            assert [i.oid.number for i in selected] == [1, 3, 4]
        # the write path finds rows through the same alias
        adapter.delete_row("t", 1)
        assert [
            (i.oid.number, i.get("rowid"))
            for i in adapter.scan("t", None, (("label", "x"),))
        ] == [(2, "m"), (3, "a")]

    def test_a_table_with_every_rowid_alias_as_a_column_is_refused(self, tmp_path):
        path = tmp_path / "hidden.db"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE t (rowid, _rowid_, oid)")
        connection.commit()
        connection.close()
        with pytest.raises(SourceConfigError, match="'t'"):
            SqliteSourceAdapter(path).relations()

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


class TestNumberMapAcrossWrites:
    """The rowid → number map is cached per source version: narrowed
    sharded scans between inserts, deletes and updates must keep the
    OIDs of an unnarrowed scan (a map kept across versions would not)."""

    WRITES = {
        "university": ("level", lambda level: level),
        "market": ("level_bp", lambda level: level * 100),
    }

    def _check(self, adapter):
        for shard in ShardPlan(4).specs():
            full = adapter.scan("person", shard)
            selected = adapter.scan("person", shard, (("level", 3),))
            expected = _filtered(full, "level", 3)
            assert [i.oid for i in selected] == [i.oid for i in expected]
            assert selected == expected

    @pytest.mark.parametrize("schema", sorted(WRITES))
    def test_narrowed_sharded_scans_follow_every_write(self, schema, tmp_path):
        dataset = generate_source_federation(
            people_per_schema=30, records_per_person=1, seed=5, schemas=(schema,)
        )
        adapter = disk_databases(dataset, tmp_path, kinds="sqlite")[schema].adapter
        column, encode = self.WRITES[schema]
        writes = [
            lambda: adapter.delete_row("person", 2),
            lambda: adapter.insert_row(
                "person", {"ssn": f"{schema}-new", "name": "n", column: encode(3)}
            ),
            lambda: adapter.update_row("person", 5, {column: encode(3)}),
            lambda: adapter.delete_row("person", 1),
            lambda: adapter.update_row("person", 9, {column: encode(1)}),
        ]
        self._check(adapter)  # builds the map
        for write in writes:
            write()
            self._check(adapter)

    def test_scans_racing_tail_inserts_number_rows_as_the_final_scan(
        self, tmp_path
    ):
        """Tail inserts renumber nothing, so every row a narrowed scan
        returns mid-race must equal that row in the final full scan."""
        dataset = generate_source_federation(
            people_per_schema=30, records_per_person=1, seed=5,
            schemas=("university",),
        )
        adapter = disk_databases(dataset, tmp_path, kinds="sqlite")[
            "university"
        ].adapter
        shards = ShardPlan(4).specs()
        scanned, errors = [], []
        done = threading.Event()

        def read():
            for _ in range(100):  # bounded, and the first error ends it
                if done.is_set() or errors:
                    return
                for shard in shards:
                    try:
                        scanned.append(adapter.scan("person", shard, (("level", 3),)))
                    except SourceUnavailableError:
                        pass  # locked past the busy timeout; the executor retries
                    except Exception as error:  # reported below
                        # keep no traceback: its frames would hold the
                        # scan's cursor, and with it a read lock
                        errors.append(repr(error))
                        return

        def write():
            try:
                for index in range(15):
                    row = {"ssn": f"race-{index}", "name": "n", "level": 3}
                    for _ in range(50):
                        try:
                            adapter.insert_row("person", row)
                            break
                        except SourceUnavailableError:
                            time.sleep(0.01)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=read) for _ in range(4)]
        threads.append(threading.Thread(target=write))
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        final = {instance.oid: instance for instance in adapter.scan("person")}
        assert len(final) > 30 and scanned
        for selected in scanned:
            for instance in selected:
                assert final[instance.oid] == instance


def _plan(raw_type, mapping=None, default=None):
    return _AttributePlan("c", "c", raw_type, raw_type, mapping or DefaultMapping(), default)


class TestSqlNarrowingConditions:
    def test_default_mapping_on_identity_storage(self):
        clause, params = _sql_narrowing((_plan(DataType.STRING), "x"))
        assert params == ["x"] and "IN (?)" in clause and ">= x''" in clause
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
            # an interval would miss the NULLs the default maps onto 3
            (_plan(DataType.INTEGER, LinearMapping(a=0.01, as_int=True), default=3), 3),
            (_plan(DataType.INTEGER, FunctionMapping(lambda v: v)), 3),
            (_plan(DataType.STRING, TripleMapping.of((1, 7, 1.0))), 1),
        ],
    )
    def test_no_sql_narrowing(self, test):
        assert _sql_narrowing(test) is None

    def test_linear_mapping_on_an_integer_column(self):
        """market's basis points: ``person(level=3)`` reads 250..350."""
        mapping = LinearMapping(a=0.01, as_int=True)
        clause, (low, high) = _sql_narrowing((_plan(DataType.INTEGER, mapping), 3))
        assert "BETWEEN ? AND ?" in clause and "'integer'" in clause
        exact = [x for x in range(0, 1000) if mapping.translate(x) == 3]
        assert low < exact[0] and exact[-1] < high
        assert high - low <= len(exact) + 4
        # a negative slope swaps the bounds
        clause, (low, high) = _sql_narrowing(
            (_plan(DataType.INTEGER, LinearMapping(a=-2, b=1)), -5)
        )
        assert low < 3 < high and high - low <= 4

    @pytest.mark.parametrize(
        "test",
        [
            (_plan(DataType.INTEGER, LinearMapping(a=0.0, b=3.0)), 3.0),
            (_plan(DataType.INTEGER, LinearMapping(a=float("nan"))), 3.0),
            (_plan(DataType.INTEGER, LinearMapping(b=float("inf"))), 3.0),
            (_plan(DataType.INTEGER, LinearMapping(a=1e300)), 3.0),  # overflows
            (_plan(DataType.INTEGER, LinearMapping()), float("inf")),
            (_plan(DataType.INTEGER, LinearMapping()), 10**400),
            (_plan(DataType.INTEGER, LinearMapping()), 2**53),  # bound beyond
            (_plan(DataType.INTEGER, LinearMapping(a=1e-12)), 1.0),
            (_plan(DataType.INTEGER, LinearMapping(as_int=True)), True),
            (_plan(DataType.INTEGER, LinearMapping(as_int=True)), "3"),
            (_plan(DataType.INTEGER, LinearMapping(a=0.5)), 3.0),  # float ≠ INTEGER
            (_plan(DataType.STRING, LinearMapping(as_int=True)), 3),
        ],
    )
    def test_no_linear_interval(self, test):
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
