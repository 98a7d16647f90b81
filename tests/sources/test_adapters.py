"""Adapter mechanics: discovery, OIDs, aggregations, versioning.

The §3 transformation each adapter applies — relation → class, non-FK
column → attribute, FK → aggregation function with the ``fk = pk``
cardinality refinement — plus the OID numbering and the file-fingerprint
version the extent cache keys freshness on.
"""

import os
import sqlite3

import pytest

from repro.errors import SourceConfigError, SourceFormatError, UnknownClassError
from repro.model.aggregations import Cardinality
from repro.model.datatypes import DataType
from repro.runtime import RuntimePolicy
from repro.runtime.deltas import DeltaUnpatchable, patch_extent
from repro.sources import (
    CsvSourceAdapter,
    JsonSourceAdapter,
    MemorySourceAdapter,
    RelationSpec,
    SqliteSourceAdapter,
)
from repro.federation.relational import Column, ForeignKey
from repro.workloads import (
    build_memory_databases,
    generate_source_federation,
    write_csv,
    write_json,
    write_sqlite,
)

from .conftest import disk_databases, integrated_fsm


def _university(tmp_path, writer=write_sqlite):
    dataset = generate_source_federation(
        people_per_schema=10, records_per_person=2, seed=3,
        schemas=("university",),
    )
    paths = writer(dataset, tmp_path)
    return dataset, paths["university"]


class TestSqliteDiscovery:
    def test_tables_columns_keys_are_reflected(self, tmp_path):
        _, path = _university(tmp_path)
        adapter = SqliteSourceAdapter(path)
        specs = {spec.name: spec for spec in adapter.relations()}
        assert set(specs) == {"department", "person", "enrollment"}
        person = specs["person"]
        assert person.primary_key == "ssn"
        assert person.column("ssn").data_type is DataType.STRING
        assert [
            (fk.column, fk.target_relation, fk.target_column)
            for fk in person.foreign_keys
        ] == [("dept", "department", "code")]
        assert specs["enrollment"].column("id").data_type is DataType.INTEGER

    def test_unknown_relation_is_an_unknown_class(self, tmp_path):
        _, path = _university(tmp_path)
        with pytest.raises(UnknownClassError):
            SqliteSourceAdapter(path).scan("no_such_table")


class TestWeaklyTypedDiscovery:
    def test_csv_headers_discover_string_columns(self, tmp_path):
        _, _ = _university(tmp_path / "u", writer=write_csv)
        adapter = CsvSourceAdapter(tmp_path / "u" / "university")
        person = {spec.name: spec for spec in adapter.relations()}["person"]
        assert all(
            column.data_type is DataType.STRING for column in person.columns
        )

    def test_json_infers_types_from_first_non_null(self, tmp_path):
        _, _ = _university(tmp_path / "u", writer=write_json)
        adapter = JsonSourceAdapter(tmp_path / "u" / "university")
        specs = {spec.name: spec for spec in adapter.relations()}
        assert specs["person"].column("ssn").data_type is DataType.STRING
        assert specs["person"].column("level").data_type is DataType.INTEGER
        assert specs["enrollment"].column("id").data_type is DataType.INTEGER


class TestTransformation:
    def test_fk_becomes_aggregation_not_attribute(self, tmp_path):
        _, path = _university(tmp_path)
        schema = SqliteSourceAdapter(path).schema()
        person = schema.effective_class("person")
        assert {a.name for a in person.attributes} == {"ssn", "name", "level"}
        (aggregation,) = person.aggregations
        assert aggregation.name == "dept"
        assert aggregation.range_class == "department"
        assert aggregation.cardinality is Cardinality.M_TO_ONE

    def test_fk_on_primary_key_refines_to_one_to_one(self, tmp_path):
        path = tmp_path / "badge.db"
        connection = sqlite3.connect(path)
        connection.executescript(
            """
            CREATE TABLE person (ssn TEXT PRIMARY KEY, name TEXT);
            CREATE TABLE badge (
                person_ssn TEXT PRIMARY KEY REFERENCES person (ssn),
                colour TEXT
            );
            INSERT INTO person VALUES ('s1', 'a');
            INSERT INTO badge VALUES ('s1', 'red');
            """
        )
        connection.commit()
        connection.close()
        schema = SqliteSourceAdapter(path).schema()
        (aggregation,) = schema.effective_class("badge").aggregations
        assert aggregation.cardinality is Cardinality.ONE_TO_ONE

    def test_oids_number_rows_from_one_in_storage_order(self, tmp_path):
        dataset, path = _university(tmp_path)
        adapter = SqliteSourceAdapter(
            path, agent="agent-university", system="component"
        )
        instances = adapter.scan("person")
        assert [instance.oid.number for instance in instances] == list(
            range(1, len(dataset.rows["university"]["person"]) + 1)
        )
        oid = instances[0].oid
        assert (oid.agent, oid.system, oid.database, oid.relation) == (
            "agent-university", "component", "university", "person"
        )

    def test_fk_values_resolve_to_target_oids(self, tmp_path):
        _, path = _university(tmp_path)
        adapter = SqliteSourceAdapter(path)
        departments = {i.oid: i for i in adapter.scan("department")}
        for person in adapter.scan("person"):
            target = person.aggregations["dept"]
            assert target in departments
            assert target.relation == "department"

    def test_dangling_fk_stays_unresolved_without_error(self):
        adapter = MemorySourceAdapter(
            "m",
            {
                "department": [{"code": "d0", "title": "x"}],
                "person": [
                    {"ssn": "1", "dept": "d0"},
                    {"ssn": "2", "dept": "d-missing"},
                ],
            },
            (
                RelationSpec(
                    "department",
                    (Column("code", DataType.STRING), Column("title", DataType.STRING)),
                ),
                RelationSpec(
                    "person",
                    (Column("ssn", DataType.STRING), Column("dept", DataType.STRING)),
                    foreign_keys=(ForeignKey("dept", "department", "code"),),
                ),
            ),
        )
        first, second = adapter.scan("person")
        assert "dept" in first.aggregations
        assert "dept" not in second.aggregations  # autonomy: kept, not rejected


def _keyed_table(tmp_path, ids=(10, 20, 30)):
    """``t(id INTEGER PRIMARY KEY, v)``: the id is the rowid itself."""
    path = tmp_path / "keyed.db"
    connection = sqlite3.connect(path)
    connection.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
    connection.executemany(
        "INSERT INTO t VALUES (?, ?)", [(key, f"v{key}") for key in ids]
    )
    connection.commit()
    connection.close()
    return SqliteSourceAdapter(path)


def _patched_or_rescanned(adapter, write):
    """Replay the delta *write* logs onto the cached extent of ``t`` (a
    rescan when the chain is unpatchable) and return it beside a rescan."""
    cached = adapter.scan("t")
    version = adapter.source_version()
    write()
    records = [
        record
        for delta in adapter.changes_since(version)
        for record in delta.records
        if record.relation == "t"
    ]
    try:
        patch_extent(cached, records)
    except DeltaUnpatchable:
        cached = adapter.scan("t")
    return records, cached, adapter.scan("t")


class TestSqliteWritesKeepPositionalNumbers:
    """A write is patchable only if it leaves every other row's tuple
    number alone; otherwise it must mark its relation for rescan."""

    def test_insert_below_the_rowid_tail_is_a_rescan(self, tmp_path):
        adapter = _keyed_table(tmp_path)
        records, patched, rescanned = _patched_or_rescanned(
            adapter, lambda: adapter.insert_row("t", {"id": 15, "v": "x"})
        )
        assert [record.op for record in records] == ["rescan"]
        assert [i.get("id") for i in rescanned] == [10, 15, 20, 30]
        assert patched == rescanned

    def test_update_that_moves_the_rowid_is_a_rescan(self, tmp_path):
        adapter = _keyed_table(tmp_path)
        records, patched, rescanned = _patched_or_rescanned(
            adapter, lambda: adapter.update_row("t", 3, {"id": 5})
        )
        assert [record.op for record in records] == ["rescan"]
        assert [(i.oid.number, i.get("id")) for i in rescanned][0] == (1, 5)
        assert patched == rescanned

    def test_tail_insert_and_in_place_update_stay_patchable(self, tmp_path):
        adapter = _keyed_table(tmp_path)
        for write, op in (
            (lambda: adapter.insert_row("t", {"id": 40, "v": "x"}), "insert"),
            (lambda: adapter.insert_row("t", {"v": "y"}), "insert"),
            (lambda: adapter.update_row("t", 2, {"v": "w"}), "update"),
            (lambda: adapter.update_row("t", 5, {"id": 41}), "update"),
        ):
            records, patched, rescanned = _patched_or_rescanned(adapter, write)
            assert [record.op for record in records] == [op]
            assert patched == rescanned
        assert [i.get("id") for i in adapter.scan("t")] == [10, 20, 30, 40, 41]


class TestRowidlessTables:
    def _without_rowid(self, tmp_path):
        path = tmp_path / "wr.db"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE plain (k TEXT PRIMARY KEY, v TEXT)")
        connection.execute(
            "CREATE TABLE keyed (k TEXT PRIMARY KEY, v TEXT) WITHOUT ROWID"
        )
        connection.execute("INSERT INTO keyed VALUES ('a', 'b')")
        connection.commit()
        connection.close()
        return path

    def test_without_rowid_table_is_refused_at_discovery(self, tmp_path):
        adapter = SqliteSourceAdapter(self._without_rowid(tmp_path))
        with pytest.raises(SourceConfigError, match="'keyed'.*WITHOUT ROWID"):
            adapter.relations()

    def test_declared_without_rowid_table_fails_as_a_config_error(self, tmp_path):
        """Declared relations skip discovery; the scan still refuses
        with a non-retryable config error, not a retryable outage."""
        spec = RelationSpec(
            "keyed", (Column("k", DataType.STRING), Column("v", DataType.STRING))
        )
        adapter = SqliteSourceAdapter(self._without_rowid(tmp_path), relations=[spec])
        with pytest.raises(SourceConfigError, match="'keyed'"):
            adapter.scan("keyed")


class TestVersioning:
    def test_version_is_stable_while_files_are(self, tmp_path):
        _, path = _university(tmp_path)
        adapter = SqliteSourceAdapter(path)
        assert adapter.source_version() == adapter.source_version()
        assert (
            SqliteSourceAdapter(path).source_version()
            == adapter.source_version()
        )  # deterministic across adapter instances (warm restarts)

    def test_file_change_bumps_the_version(self, tmp_path):
        _, path = _university(tmp_path)
        adapter = SqliteSourceAdapter(path)
        before = adapter.source_version()
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        # versions are content-derived: an mtime-only touch leaves the
        # bytes (and therefore the extents) unchanged
        assert adapter.source_version() == before
        connection = sqlite3.connect(path)
        connection.execute("INSERT INTO person VALUES ('v-ssn', 'v', 1, 'd0')")
        connection.commit()
        connection.close()
        assert adapter.source_version() != before

    def test_same_mtime_same_size_rewrite_changes_the_version(self, tmp_path):
        """The (name, mtime, size) stat fingerprint aliased when a rapid
        rewrite landed in the same mtime granule with the same byte
        count; the content hash must see through exactly that."""
        directory = tmp_path / "csv"
        directory.mkdir()
        record = directory / "person.csv"
        record.write_text("ssn,name\n100,aa\n")
        adapter = CsvSourceAdapter(directory)
        before = adapter.source_version()
        stat = record.stat()
        # same size, and the mtime pinned back to the old granule — the
        # worst case the stat triple cannot distinguish
        record.write_text("ssn,name\n100,ab\n")
        os.utime(record, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert record.stat().st_mtime_ns == stat.st_mtime_ns
        assert record.stat().st_size == stat.st_size
        assert adapter.source_version() != before

    def test_component_write_invalidates_the_warm_cache(self, tmp_path):
        from .conftest import disk_databases

        dataset = generate_source_federation(
            people_per_schema=8, records_per_person=1, seed=6,
            schemas=("university", "hospital"),
        )
        databases = disk_databases(dataset, tmp_path, kinds="sqlite")
        path = tmp_path / "university.db"
        fsm = integrated_fsm(databases, dataset.assertions)
        runtime = fsm.use_runtime(RuntimePolicy())
        try:
            query = "person() -> ssn"
            before = {row["ssn"] for row in fsm.query(query)}
            assert fsm.query(query) and (
                fsm.last_query_stats.counter("agent_scans") == 0
            )
            connection = sqlite3.connect(path)
            connection.execute(
                "INSERT INTO person VALUES ('new-ssn', 'new', 3, 'd0')"
            )
            connection.commit()
            connection.close()
            stat = path.stat()
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
            after = {row["ssn"] for row in fsm.query(query)}
            assert after == before | {"new-ssn"}
            assert fsm.last_query_stats.counter("agent_scans") > 0
        finally:
            runtime.close()

    def test_memory_bump_invalidates_the_warm_cache(self):
        dataset = generate_source_federation(
            people_per_schema=6, records_per_person=1, seed=2
        )
        databases = build_memory_databases(dataset)
        fsm = integrated_fsm(databases, dataset.assertions)
        runtime = fsm.use_runtime(RuntimePolicy())
        try:
            query = "person() -> ssn"
            fsm.query(query)
            fsm.query(query)
            assert fsm.last_query_stats.counter("agent_scans") == 0
            databases["market"].adapter.insert(
                "person",
                {"ssn": "market-new", "name": "n", "level_bp": 300,
                 "sector": "s0"},
            )
            answers = {row["ssn"] for row in fsm.query(query)}
            assert "market-new" in answers
            # the observed insert rode the delta feed: the warm cache was
            # patched in place, no extent was rescanned
            assert fsm.last_query_stats.counter("agent_scans") == 0
            assert fsm.last_query_stats.counter("granules_patched") > 0
            # an *unobserved* write (bump logs no delta) still invalidates,
            # via the targeted gap fallback — answers stay fresh, scans return
            databases["market"].adapter.bump()
            rescanned = {row["ssn"] for row in fsm.query(query)}
            assert rescanned == answers
            assert fsm.last_query_stats.counter("agent_scans") > 0
            assert fsm.last_query_stats.counter("fallback_invalidations") > 0
        finally:
            runtime.close()


#: every write helper, per backend: (kind, helper name)
WRITE_HELPERS = [
    ("memory", "__init__"),
    ("memory", "insert"),
    ("memory", "update_row"),
    ("sqlite", "insert_row"),
    ("sqlite", "update_row"),
    ("csv", "append_row"),
    ("json", "append_row"),
    ("json", "update_row"),
]


def _write(adapter, helper, row):
    if helper == "__init__":
        MemorySourceAdapter("m", {"person": [row]}, adapter.relations())
    elif helper == "update_row":
        adapter.update_row("person", 1, row)
    else:
        getattr(adapter, helper)("person", row)


class TestUndeclaredColumns:
    """A write naming a column its relation does not declare is refused
    before anything is written, on every backend and write helper."""

    @pytest.mark.parametrize(
        "kind, helper", WRITE_HELPERS, ids=[f"{k}-{h}" for k, h in WRITE_HELPERS]
    )
    def test_write_with_unknown_column_is_refused(self, tmp_path, kind, helper):
        dataset = generate_source_federation(
            people_per_schema=4, records_per_person=1, seed=3,
            schemas=("university",),
        )
        if kind == "memory":
            databases = build_memory_databases(dataset)
        else:
            databases = disk_databases(dataset, tmp_path, kinds=kind)
        adapter = databases["university"].adapter
        row = dict(dataset.rows["university"]["person"][0], ssn="new")
        before = (adapter.source_version(), adapter.scan("person"))
        with pytest.raises(SourceConfigError, match=r"'person'.*\['zzz'\]"):
            _write(adapter, helper, dict(row, zzz=1))
        assert (adapter.source_version(), adapter.scan("person")) == before
        _write(adapter, helper, row)  # the declared columns alone are written


class TestSourceDatabaseStore:
    """The ComponentStore facade: what FSM agents actually call."""

    def test_extents_counts_and_lookup(self, tmp_path):
        dataset, path = _university(tmp_path)
        store = SqliteSourceAdapter(path).database()
        person_rows = dataset.rows["university"]["person"]
        assert len(store.extent("person")) == len(person_rows)
        assert len(store.extent("enrollment")) == len(
            dataset.rows["university"]["enrollment"]
        )
        instance = store.extent("person")[0]
        [found] = [i for i in store.extent("person") if i.oid == instance.oid]
        assert found.attributes == instance.attributes

    def test_value_set_applies_the_data_mappings(self):
        dataset = generate_source_federation(
            people_per_schema=12, records_per_person=1, seed=4
        )
        databases = build_memory_databases(dataset)
        # hospital stores "L3"-style strings; the value set is mapped ints
        levels = databases["hospital"].value_set("person", "level")
        assert levels and levels <= {1, 2, 3, 4, 5}


ROOM = RelationSpec(
    "room", (Column("id", DataType.INTEGER), Column("floor", DataType.INTEGER))
)


def _room_adapter(kind, tmp_path):
    """One backend holding ``room(id INTEGER, floor INTEGER)`` = (1, 1)."""
    if kind == "memory":
        return MemorySourceAdapter("rooms", {"room": [{"id": 1, "floor": 1}]}, [ROOM])
    if kind == "sqlite":
        path = tmp_path / "rooms.db"
        connection = sqlite3.connect(path)
        connection.execute("CREATE TABLE room (id INTEGER PRIMARY KEY, floor INTEGER)")
        connection.execute("INSERT INTO room VALUES (1, 1)")
        connection.commit()
        connection.close()
        return SqliteSourceAdapter(path)
    directory = tmp_path / kind
    directory.mkdir()
    if kind == "csv":
        (directory / "room.csv").write_text("id,floor\n1,1\n")
        return CsvSourceAdapter(directory, relations=[ROOM])
    (directory / "room.json").write_text('[{"id": 1, "floor": 1}]')
    return JsonSourceAdapter(directory, relations=[ROOM])


@pytest.mark.parametrize(
    "kind, write",
    [
        ("memory", lambda a: a.insert("room", {"id": 2, "floor": "three"})),
        ("memory", lambda a: a.update_row("room", 1, {"floor": "three"})),
        ("csv", lambda a: a.append_row("room", {"id": 2, "floor": "three"})),
        ("json", lambda a: a.append_row("room", {"id": 2, "floor": "three"})),
        ("json", lambda a: a.update_row("room", 1, {"floor": "three"})),
        ("sqlite", lambda a: a.insert_row("room", {"id": 2, "floor": "three"})),
        ("sqlite", lambda a: a.update_row("room", 1, {"floor": "three"})),
        ("sqlite", lambda a: a.update_row("room", 1, {"id": 5, "floor": "three"})),
    ],
    ids=[
        "memory-insert",
        "memory-update_row",
        "csv-append_row",
        "json-append_row",
        "json-update_row",
        "sqlite-insert_row",
        "sqlite-update_row",
        "sqlite-update_row-moving-the-rowid",
    ],
)
def test_a_write_refused_by_coercion_changes_nothing(kind, write, tmp_path):
    """A row the §3 coercion refuses must leave the store, its version
    and its delta feed as they were, so later scans still succeed."""
    adapter = _room_adapter(kind, tmp_path)
    version = adapter.source_version()
    rows = list(adapter.fetch_numbered_rows(ROOM))
    with pytest.raises(SourceFormatError):
        write(adapter)
    assert adapter.source_version() == version
    assert list(adapter.fetch_numbered_rows(ROOM)) == rows
    assert len(adapter._delta_log) == 0
    assert [(i.get("id"), i.get("floor")) for i in adapter.scan("room")] == [(1, 1)]
