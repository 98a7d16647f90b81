"""Lifted fact slices: reused while their cache entry is served, never after.

``lift_facts`` keeps each (integrated class, schema, local class) slice
on the extent-cache entry it was lifted from.  After every event that
changes what that entry should hold — a source write, a delta patch, an
explicit invalidation, a generation bump, a re-integration, a new data
mapping — the next query must answer exactly like a fresh reference FSM
that has no runtime at all.
"""

import sys
import threading

import pytest

from repro.federation.mappings import FunctionMapping
from repro.federation.query import FederatedQuery
from repro.runtime import RuntimePolicy
from repro.service import stats_to_dict
from repro.sources import load_source_federation
from repro.workloads import (
    build_memory_databases,
    generate_source_federation,
    source_fsm,
    write_source_directory,
)

QUERIES = (
    "person() -> ssn, name, level",
    "person(level=2) -> ssn, name",
    "enrollment() -> course, mark, person_ssn",
    "visit() -> day, cost",
)


def _rows_key(rows):
    return sorted(
        sorted((name, str(value)) for name, value in row.items()) for row in rows
    )


class Federation:
    """A sqlite federation with a cached runtime, and a memory reference
    that replays the same writes and mapping registrations."""

    def __init__(self, directory, mode="threaded"):
        self.dataset = generate_source_federation(
            people_per_schema=6, records_per_person=2, seed=5
        )
        write_source_directory(self.dataset, directory, kinds="sqlite")
        text, self.databases = load_source_federation(directory)
        self.fsm = source_fsm(self.databases, text)
        self.fsm.integrate_all()
        self.runtime = self.fsm.use_runtime(RuntimePolicy(max_workers=2), mode=mode)
        self.reference_databases = build_memory_databases(self.dataset)
        self.reference = source_fsm(self.reference_databases, self.dataset.assertions)
        self.reference.integrate_all()
        self.next_id = self.dataset.people_per_schema * self.dataset.records_per_person

    def insert_enrollment(self, mark):
        self.next_id += 1
        row = {
            "id": self.next_id,
            "person_ssn": "university-1",
            "course": "course-new",
            "mark": mark,
        }
        self.databases["university"].adapter.insert_row("enrollment", row)
        self.reference_databases["university"].adapter.insert("enrollment", row)

    def update_level(self, number, level):
        self.update_person(number, level=level)

    def update_person(self, number, **changes):
        self.databases["university"].adapter.update_row("person", number, changes)
        self.reference_databases["university"].adapter.update_row(
            "person", number, changes
        )

    def register(self, *key, mapping):
        self.fsm.mappings.register(*key, mapping)
        self.reference.mappings.register(*key, mapping)

    def assert_matches(self, queries=QUERIES):
        for text in queries:
            assert _rows_key(self.fsm.query(text)) == _rows_key(
                self.reference.query(text)
            ), text

    def counter(self, name):
        return self.fsm.last_query_stats.counter(name)


@pytest.fixture
def federation(tmp_path):
    built = Federation(tmp_path)
    try:
        built.assert_matches()  # cold: fills the cache and the slices
        yield built
    finally:
        built.runtime.close()


class TestWarmQueries:
    def test_a_warm_query_lifts_nothing(self, federation):
        federation.fsm.query(QUERIES[0])
        assert federation.counter("lift_slices_built") == 0
        assert federation.counter("lift_slices_reused") == 3  # person x 3 schemas
        assert federation.counter("agent_scans") == 0

    def test_counters_reach_cli_and_service_reports(self, federation):
        federation.fsm.query(QUERIES[0])
        stats = federation.fsm.last_query_stats
        assert "lift_slices_reused     3" in stats.describe()  # CLI --stats
        assert stats_to_dict(stats)["counters"]["lift_slices_reused"] == 3  # /stats
        total = stats_to_dict(federation.runtime.stats())["counters"]
        assert total["lift_slices_built"] > 0


class TestSliceLifetime:
    def test_insert_row(self, federation):
        federation.insert_enrollment(mark=97)
        federation.assert_matches()

    def test_update_row_patched_by_the_delta_feed(self, federation):
        federation.update_level(number=2, level=5)
        federation.fsm.query(QUERIES[1])
        assert federation.counter("granules_patched") >= 1
        assert federation.counter("lift_slices_patched") >= 1
        assert federation.counter("lift_slices_built") == 0
        federation.assert_matches()

    def test_a_patch_keeps_the_slices_of_relations_it_does_not_touch(self, federation):
        query = "enrollment(course='course1') -> mark, person_ssn"
        federation.fsm.query(query)
        federation.update_level(number=2, level=5)  # a person row, not enrollment
        federation.fsm.query(query)
        assert federation.counter("granules_patched") >= 1
        assert federation.counter("lift_slices_reused") == 1
        assert federation.counter("lift_slices_built") == 0
        federation.assert_matches()

    def test_dropped_slices_are_counted_and_reported(self, federation):
        # a moved primary key re-resolves enrollment's references: the
        # feed marks enrollment for rescan, a fallback that drops its slice
        federation.update_person(number=2, ssn="university-moved")
        federation.fsm.query("enrollment() -> course, mark, person_ssn")
        stats = federation.fsm.last_query_stats
        assert stats.counter("fallback_invalidations") == 1
        assert stats.counter("lift_slices_dropped") == 1
        assert "lift_slices_dropped    1" in stats.describe()  # CLI --stats
        assert stats_to_dict(stats)["counters"]["lift_slices_dropped"] == 1  # /stats
        federation.fsm.query(QUERIES[0])
        assert federation.counter("lift_slices_dropped") == 0
        assert federation.counter("lift_slices_built") == 0  # person's was patched
        federation.assert_matches()

    def test_invalidation_and_generation_bumps_count_their_drops(self, federation):
        query = "enrollment(course='course1') -> mark, person_ssn"

        def dropped():
            return federation.runtime.stats().counter("lift_slices_dropped")

        federation.runtime.invalidate()  # the fixture's warm-up slices
        federation.fsm.query(query)  # one slice
        before = dropped()
        federation.runtime.invalidate()
        assert dropped() == before + 1
        federation.fsm.query(query)
        assert federation.counter("lift_slices_built") == 1
        federation.runtime.bump_generation()
        assert dropped() == before + 2
        federation.assert_matches()

    def test_explicit_invalidation(self, federation):
        dropped = federation.runtime.invalidate(schema="university", class_name="person")
        assert dropped == 1
        federation.fsm.query(QUERIES[0])
        assert federation.counter("lift_slices_built") == 1
        assert federation.counter("lift_slices_reused") == 2
        federation.assert_matches()

    def test_generation_bump(self, federation):
        federation.runtime.cache.bump_generation()
        federation.fsm.query(QUERIES[0])
        assert federation.counter("lift_slices_reused") == 0
        federation.assert_matches()

    def test_reintegration(self, federation):
        federation.fsm.integrate_all()
        federation.fsm.query(QUERIES[0])
        assert federation.counter("lift_slices_reused") == 0
        assert federation.counter("agent_scans") == 0  # extents stay cached
        federation.assert_matches()

    def test_mapping_registration(self, federation):
        federation.register(
            "name", "university", "name", mapping=FunctionMapping(str.upper, "upper")
        )
        rows = federation.fsm.query(QUERIES[0])
        assert federation.counter("lift_slices_built") >= 1
        assert any(row["name"] and row["name"].isupper() for row in rows)
        federation.assert_matches()


def test_registrations_after_appendix_b_are_seen(tmp_path):
    """An empty registry is falsy; the top-down evaluator must still hold
    the FSM's own registry, not a private empty one."""
    dataset = generate_source_federation(people_per_schema=4, records_per_person=1, seed=3)
    fsm = source_fsm(build_memory_databases(dataset), dataset.assertions)
    fsm.integrate_all()
    program = fsm.appendix_b()
    fsm.mappings.register("name", "market", "name", FunctionMapping(str.upper, "upper"))
    rows = FederatedQuery.parse("person() -> ssn, name").run(program)
    market = [row for row in rows if str(row["ssn"]).startswith("market-")]
    assert market and all(row["name"].isupper() for row in market)
    assert _rows_key(rows) == _rows_key(fsm.query("person() -> ssn, name"))


@pytest.mark.parametrize("mode", ("threaded", "async"))
def test_threads_share_slices_while_racing_to_index_them(tmp_path, mode):
    """Eight threads start on a cache holding extents but no slices: they
    race to lift and attach slices, then to build the lazy indexes of
    the ones they share.  Every answer must equal the memory baseline."""
    federation = Federation(tmp_path, mode=mode)
    expected = {
        text: _rows_key(federation.reference.query(text)) for text in QUERIES
    }
    integrated = federation.fsm.integrated
    pairs = [origin for cls in integrated if not cls.virtual for origin in cls.origins]
    federation.runtime.scan_extents(pairs)  # extents cached, nothing lifted
    barrier = threading.Barrier(8)
    failures = []

    def worker(offset):
        try:
            barrier.wait()
            for round_index in range(6):
                text = QUERIES[(offset + round_index) % len(QUERIES)]
                got = _rows_key(federation.fsm.query(text))
                if got != expected[text]:
                    failures.append(text)
        except Exception as error:  # surfaced by the assertion below
            failures.append(repr(error))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        federation.runtime.close()
    assert not failures
    stats = federation.runtime.stats()
    assert stats.counter("agent_scans") == len(pairs)
    assert stats.counter("lift_slices_reused") > 0
