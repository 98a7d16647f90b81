"""Adapter fault injection: broken storage must fail typed, not hang.

A federation of autonomous sources *will* meet a locked or corrupt
sqlite file, a truncated CSV row, a malformed JSON record.  Each must
surface as a typed :class:`~repro.errors.SourceError` — a
``TransportError`` subclass — so the runtime's existing retry, circuit
breaker, ``lost_granules`` accounting and PARTIAL/ERROR policies apply
unchanged; nothing may hang and nothing may be silently dropped.
"""

import sqlite3
import time

import pytest

from repro.errors import (
    PartialResultError,
    SourceConfigError,
    SourceError,
    SourceFormatError,
    SourceUnavailableError,
    TransportError,
)
from repro.runtime import RuntimePolicy
from repro.sources import CsvSourceAdapter, JsonSourceAdapter, SqliteSourceAdapter
from repro.workloads import generate_source_federation

from .conftest import disk_databases, integrated_fsm

QUERY = "person() -> ssn"


def _sqlite_path(tmp_path, dataset):
    from repro.workloads import write_sqlite

    return write_sqlite(dataset, tmp_path)["university"]


@pytest.fixture
def dataset():
    return generate_source_federation(
        people_per_schema=8, records_per_person=1, seed=5
    )


class TestErrorTaxonomy:
    """Source failures are transport failures — the executor's contract."""

    def test_source_errors_are_transport_errors(self):
        assert issubclass(SourceError, TransportError)
        assert issubclass(SourceUnavailableError, SourceError)
        assert issubclass(SourceFormatError, SourceError)
        assert not issubclass(SourceConfigError, TransportError)

    def test_format_error_carries_row_context(self):
        error = SourceFormatError("db1", "person", "row 3 is bad")
        assert error.source == "db1"
        assert error.relation == "person"
        assert "person" in str(error) and "row 3 is bad" in str(error)


class TestSqliteFaults:
    def test_missing_file_is_unavailable(self, tmp_path):
        adapter = SqliteSourceAdapter(tmp_path / "nope.db")
        with pytest.raises(SourceUnavailableError, match="nope.db"):
            adapter.relations()

    def test_corrupt_file_is_unavailable(self, tmp_path, dataset):
        path = _sqlite_path(tmp_path, dataset)
        path.write_bytes(b"this is not a sqlite database at all" * 40)
        adapter = SqliteSourceAdapter(path)
        with pytest.raises(SourceUnavailableError):
            adapter.scan("person") if adapter._declared else adapter.relations()

    def test_locked_database_fails_fast_not_forever(self, tmp_path, dataset):
        path = _sqlite_path(tmp_path, dataset)
        adapter = SqliteSourceAdapter(path)
        specs = adapter.relations()  # discovery before the lock lands
        writer = sqlite3.connect(path)
        try:
            writer.execute("BEGIN EXCLUSIVE")
            started = time.monotonic()
            with pytest.raises(SourceUnavailableError):
                adapter.scan("person")
            # the read-only connection's 0.2s busy timeout bounds the
            # wait — a locked component must degrade, not hang the fan-out
            assert time.monotonic() - started < 5.0
        finally:
            writer.rollback()
            writer.close()
        assert adapter.scan("person")  # lock released -> scans again
        assert {spec.name for spec in specs} >= {"person"}

    @pytest.mark.parametrize(
        "where", [(), (("name", "x99"),)], ids=["full", "narrowed"]
    )
    def test_caught_format_error_releases_the_file(self, tmp_path, where):
        path = tmp_path / "bad.db"
        setup = sqlite3.connect(path)
        setup.execute("CREATE TABLE t (name TEXT, n INTEGER)")
        setup.executemany(
            "INSERT INTO t VALUES (?, ?)", [(f"x{i}", i) for i in range(200)]
        )
        # one bad value mid-table: the scan raises while rows remain unread
        setup.execute("UPDATE t SET n = 'oops' WHERE rowid = 100")
        setup.commit()
        setup.close()
        adapter = SqliteSourceAdapter(path)
        with pytest.raises(SourceFormatError) as caught:
            adapter.scan("t", where=where)
        # the error (and the scan frames its traceback holds) is still
        # alive here; the adapter must not keep the file read-locked
        assert caught.value is not None
        writer = sqlite3.connect(path, timeout=0.2)
        try:
            writer.execute("INSERT INTO t VALUES ('late', 1)")
            writer.commit()
        finally:
            writer.close()


class TestCsvFaults:
    def test_missing_directory_is_unavailable(self, tmp_path):
        adapter = CsvSourceAdapter(tmp_path / "absent")
        with pytest.raises(SourceUnavailableError):
            adapter.relations()

    def test_truncated_row_is_a_format_error(self, tmp_path):
        (tmp_path / "person.csv").write_text(
            "ssn,name,level\n1,alice,3\n2,bob\n", encoding="utf-8"
        )
        adapter = CsvSourceAdapter(tmp_path)
        with pytest.raises(SourceFormatError, match="truncated or overlong"):
            adapter.scan("person")

    def test_overlong_row_is_a_format_error(self, tmp_path):
        (tmp_path / "person.csv").write_text(
            "ssn,name\n1,alice,extra-cell\n", encoding="utf-8"
        )
        adapter = CsvSourceAdapter(tmp_path)
        with pytest.raises(SourceFormatError, match="truncated or overlong"):
            adapter.scan("person")


class TestJsonFaults:
    def test_malformed_document_is_unavailable(self, tmp_path):
        (tmp_path / "person.json").write_text(
            '[{"ssn": "1", "name": ', encoding="utf-8"
        )
        adapter = JsonSourceAdapter(tmp_path)
        with pytest.raises(SourceUnavailableError):
            adapter.relations()

    def test_non_array_document_is_a_format_error(self, tmp_path):
        (tmp_path / "person.json").write_text(
            '{"ssn": "1"}', encoding="utf-8"
        )
        adapter = JsonSourceAdapter(tmp_path)
        with pytest.raises(SourceFormatError):
            adapter.relations()

    def test_non_object_record_is_a_format_error(self, tmp_path):
        (tmp_path / "person.json").write_text(
            '[{"ssn": "1"}, ["not", "an", "object"]]', encoding="utf-8"
        )
        adapter = JsonSourceAdapter(tmp_path)
        with pytest.raises(SourceFormatError):
            adapter.scan("person")

    def test_nested_value_is_a_format_error(self, tmp_path):
        (tmp_path / "person.json").write_text(
            '[{"ssn": "1", "name": {"first": "a"}}]', encoding="utf-8"
        )
        adapter = JsonSourceAdapter(tmp_path)
        with pytest.raises(SourceFormatError):
            adapter.scan("person")


class TestRuntimeDegradation:
    """Through the full stack: one broken source, the rest still answer."""

    def _fsm(self, tmp_path, dataset):
        databases = disk_databases(dataset, tmp_path, kinds="sqlite")
        return integrated_fsm(databases, dataset.assertions)

    def _break_university(self, tmp_path):
        (tmp_path / "university.db").write_bytes(b"corrupt" * 64)

    def test_partial_policy_degrades_and_accounts_the_loss(
        self, tmp_path, dataset
    ):
        fsm = self._fsm(tmp_path, dataset)
        runtime = fsm.use_runtime(
            RuntimePolicy(
                max_retries=0, backoff_base=0.0, failure_policy="partial"
            )
        )
        try:
            self._break_university(tmp_path)
            answers = sorted(row["ssn"] for row in fsm.query(QUERY))
            # survivors answer; nothing from the corrupt source
            assert answers
            assert not any(ssn.startswith("university") for ssn in answers)
            assert all(
                ssn.startswith(("hospital", "market")) for ssn in answers
            )
            stats = fsm.last_query_stats
            assert stats.counter("lost_granules") >= 1
            assert any(
                "agent-university" in name for name in stats.lost_granules
            )
            warnings = runtime.drain_warnings()
            assert any("agent-university" in warning for warning in warnings)
        finally:
            runtime.close()

    def test_error_policy_refuses_the_query(self, tmp_path, dataset):
        fsm = self._fsm(tmp_path, dataset)
        runtime = fsm.use_runtime(
            RuntimePolicy(
                max_retries=0, backoff_base=0.0, failure_policy="error"
            )
        )
        try:
            self._break_university(tmp_path)
            with pytest.raises(PartialResultError):
                fsm.query(QUERY)
        finally:
            runtime.close()

    def test_breaker_trips_on_a_persistently_broken_source(
        self, tmp_path, dataset
    ):
        fsm = self._fsm(tmp_path, dataset)
        runtime = fsm.use_runtime(
            RuntimePolicy(
                max_retries=0,
                backoff_base=0.0,
                breaker_threshold=1,
                failure_policy="partial",
            )
        )
        try:
            self._break_university(tmp_path)
            fsm.query(QUERY)
            assert runtime.stats().counter("breaker_trips") >= 1
            runtime.bump_generation()
            fsm.query(QUERY)  # open circuit short-circuits, still degrades
            assert runtime.stats().counter("breaker_trips") >= 1
        finally:
            runtime.close()

    def test_repaired_source_recovers_after_invalidation(
        self, tmp_path, dataset
    ):
        from repro.workloads import write_sqlite

        fsm = self._fsm(tmp_path, dataset)
        runtime = fsm.use_runtime(
            RuntimePolicy(
                max_retries=0, backoff_base=0.0, failure_policy="partial"
            )
        )
        try:
            before = sorted(row["ssn"] for row in fsm.query(QUERY))
            assert any(ssn.startswith("university") for ssn in before)
            self._break_university(tmp_path)
            runtime.bump_generation()
            degraded = sorted(row["ssn"] for row in fsm.query(QUERY))
            assert not any(ssn.startswith("university") for ssn in degraded)
            write_sqlite(  # repair the file in place
                generate_source_federation(
                    people_per_schema=8, records_per_person=1, seed=5,
                    schemas=("university",),
                ),
                tmp_path,
            )
            runtime.bump_generation()
            repaired = sorted(row["ssn"] for row in fsm.query(QUERY))
            assert repaired == before
        finally:
            runtime.close()
