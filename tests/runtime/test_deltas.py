"""Delta primitives: the log, chain validation, extent patching.

The contracts every delta consumer leans on: a :class:`DeltaLog` only
serves contiguous suffixes that actually reach its head; chains that
dropped, duplicated or reordered links never validate;
:func:`patch_extent` either replays records exactly or raises
:class:`DeltaUnpatchable` (no partial best-effort); and
:meth:`ExtentCache.apply_deltas` patches in place, falls back to
targeted per-entry eviction — never a generation bump — and leaves
feedless stores untouched.
"""

import pytest

from repro.federation import FSMAgent
from repro.model import ClassDef, ObjectDatabase, Schema
from repro.model.oids import OID
from repro.runtime import MISS, ExtentCache, ScanRequest
from repro.runtime.deltas import (
    DeltaLog,
    DeltaRecord,
    DeltaReply,
    DeltaUnpatchable,
    SourceDelta,
    chain_is_contiguous,
    describe_granule,
    patch_extent,
)
from repro.runtime.sharding import shard_of_oid
from repro.runtime.transport import InProcessTransport


def _oid(number):
    return OID("a1", "sys", "S1", "person", number)


class FakeInstance:
    """The slice of the instance protocol patching touches: oid + get."""

    def __init__(self, number, **attributes):
        self.oid = _oid(number)
        self.attributes = attributes

    def get(self, name):
        return self.attributes.get(name)

    def __repr__(self):
        return f"FakeInstance({self.oid.number}, {self.attributes})"


def _step(base, new, *records):
    return SourceDelta(base, new, tuple(records))


class TestDeltaRecord:
    def test_unknown_op_is_rejected(self):
        with pytest.raises(ValueError):
            DeltaRecord("truncate", "person")

    def test_rescan_needs_no_oid_or_instance(self):
        record = DeltaRecord("rescan", "person")
        assert record.oid is None and record.instance is None


class TestDeltaLog:
    def test_empty_log_serves_nothing(self):
        log = DeltaLog()
        assert log.head_version is None
        assert log.changes_since(0) is None

    def test_reader_at_head_gets_the_empty_chain(self):
        log = DeltaLog()
        log.record(_step(1, 2))
        assert log.changes_since(2) == ()

    def test_contiguous_suffix_reaches_the_head(self):
        log = DeltaLog()
        first, second, third = _step(1, 2), _step(2, 3), _step(3, 4)
        for delta in (first, second, third):
            log.record(delta)
        assert log.changes_since(1) == (first, second, third)
        assert log.changes_since(3) == (third,)
        assert log.changes_since(0) is None  # before the ring's reach

    def test_capacity_evicts_the_oldest(self):
        log = DeltaLog(capacity=2)
        for delta in (_step(1, 2), _step(2, 3), _step(3, 4)):
            log.record(delta)
        assert len(log) == 2
        assert log.changes_since(1) is None  # fell off the ring
        assert log.changes_since(2) == (_step(2, 3), _step(3, 4))

    def test_broken_link_blocks_older_suffixes(self):
        log = DeltaLog()
        log.record(_step(1, 2))
        log.record(_step(5, 6))  # an unlogged span sits between
        assert log.changes_since(5) == (_step(5, 6),)
        assert log.changes_since(1) is None

    def test_recurring_version_serves_the_latest_occurrence(self):
        # content fingerprints may revisit a value (write, revert); only
        # the suffix that reaches the head is replayable
        log = DeltaLog()
        early = _step(1, 2, DeltaRecord("rescan", "person"))
        log.record(early)
        log.record(_step(2, 1))
        late = _step(1, 2)
        log.record(late)
        assert log.changes_since(1) == (late,)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DeltaLog(capacity=0)


class TestChainContiguity:
    def test_gapless_walk_validates(self):
        assert chain_is_contiguous((_step(1, 2), _step(2, 3)), 1, 3)

    def test_empty_chain_needs_matching_endpoints(self):
        assert chain_is_contiguous((), 3, 3)
        assert not chain_is_contiguous((), 2, 3)

    def test_dropped_link_fails(self):
        assert not chain_is_contiguous((_step(2, 3),), 1, 3)

    def test_duplicated_link_fails(self):
        assert not chain_is_contiguous(
            (_step(1, 2), _step(1, 2), _step(2, 3)), 1, 3
        )

    def test_reordered_links_fail(self):
        assert not chain_is_contiguous((_step(2, 3), _step(1, 2)), 1, 3)

    def test_short_head_fails(self):
        # the feed's head predates the observed version: unlogged write
        assert not chain_is_contiguous((_step(1, 2),), 1, 3)


class TestPatchExtent:
    def test_insert_appends_at_the_tail(self):
        value = [FakeInstance(1)]
        new = FakeInstance(2)
        patch_extent(value, [DeltaRecord("insert", "person", new.oid, new)])
        assert [i.oid.number for i in value] == [1, 2]

    def test_update_replaces_in_position(self):
        old, other = FakeInstance(1, name="a"), FakeInstance(2)
        value = [old, other]
        new = FakeInstance(1, name="b")
        patch_extent(value, [DeltaRecord("update", "person", new.oid, new)])
        assert value[0] is new and value[1] is other

    def test_delete_splices_and_tolerates_absence(self):
        value = [FakeInstance(1), FakeInstance(2)]
        patch_extent(
            value,
            [
                DeltaRecord("delete", "person", _oid(1)),
                DeltaRecord("delete", "person", _oid(7)),  # already gone
            ],
        )
        assert [i.oid.number for i in value] == [2]

    def test_rescan_marker_is_unpatchable(self):
        with pytest.raises(DeltaUnpatchable):
            patch_extent([], [DeltaRecord("rescan", "person")])

    def test_insert_without_instance_is_unpatchable(self):
        with pytest.raises(DeltaUnpatchable):
            patch_extent([], [DeltaRecord("insert", "person", _oid(1))])

    def test_record_without_oid_is_unpatchable(self):
        with pytest.raises(DeltaUnpatchable):
            patch_extent([], [DeltaRecord("insert", "person")])

    def test_shard_coordinate_filters_ownership(self):
        new = FakeInstance(9)
        of = 4
        owner = shard_of_oid(new.oid, of)
        stranger = (owner + 1) % of
        mine, not_mine = [], []
        record = DeltaRecord("insert", "person", new.oid, new)
        patch_extent(mine, [record], (owner, of))
        patch_extent(not_mine, [record], (stranger, of))
        assert mine == [new] and not_mine == []


class TestDescribeGranule:
    def test_unsharded_and_attribute_forms(self):
        assert (
            describe_granule(("a1", "S1", "person"), "extent")
            == "extent(a1:S1.person)"
        )
        assert (
            describe_granule(("a1", "S1", "person"), "direct_extent")
            == "direct_extent(a1:S1.person)"
        )

    def test_sharded_form_names_the_endpoint(self):
        key = ("a1", "S1", "person", (2, 4))
        assert (
            describe_granule(key, "direct_extent")
            == "direct_extent(a1#2/4:S1.person)"
        )


class TestApplyDeltas:
    REQUEST = ScanRequest("a1", "S1", "person", op="extent")

    def _cache_with(self, instances, version=1):
        cache = ExtentCache()
        cache.put(self.REQUEST, list(instances), source_generation=version)
        return cache

    def test_contiguous_chain_patches_in_place(self):
        cache = self._cache_with([FakeInstance(1)])
        new = FakeInstance(2)
        reply = DeltaReply(
            (_step(1, 2, DeltaRecord("insert", "person", new.oid, new)),)
        )
        outcome = cache.apply_deltas("a1", "S1", 2, lambda since: reply)
        assert outcome.granules_patched == 1
        assert outcome.deltas_applied == 1
        assert outcome.fallbacks == [] and not outcome.feed_missing
        patched = cache.get(self.REQUEST, source_generation=2)
        assert [i.oid.number for i in patched] == [1, 2]

    def test_other_relations_records_are_filtered_out(self):
        # a write elsewhere in the schema advances the version; this
        # granule absorbs the step with zero content change
        cache = self._cache_with([FakeInstance(1)])
        new = FakeInstance(2)
        reply = DeltaReply(
            (_step(1, 2, DeltaRecord("insert", "department", new.oid, new)),)
        )
        outcome = cache.apply_deltas("a1", "S1", 2, lambda since: reply)
        assert outcome.granules_patched == 1
        assert [i.oid.number for i in cache.get(self.REQUEST, 2)] == [1]

    def test_gap_takes_the_targeted_fallback(self):
        cache = self._cache_with([FakeInstance(1)])
        outcome = cache.apply_deltas(
            "a1", "S1", 2, lambda since: DeltaReply(None)
        )
        assert outcome.granules_patched == 0
        assert outcome.fallbacks == [("extent(a1:S1.person)", "sequence gap")]
        assert cache.get(self.REQUEST, 2) is MISS

    def test_non_contiguous_chain_is_a_gap(self):
        cache = self._cache_with([FakeInstance(1)])
        reply = DeltaReply((_step(5, 6),))  # does not link 1 → 2
        outcome = cache.apply_deltas("a1", "S1", 2, lambda since: reply)
        assert outcome.fallbacks == [("extent(a1:S1.person)", "sequence gap")]

    def test_missing_feed_leaves_the_cache_untouched(self):
        cache = self._cache_with([FakeInstance(1)])
        outcome = cache.apply_deltas("a1", "S1", 2, lambda since: None)
        assert outcome.feed_missing
        assert outcome.granules_patched == 0 and outcome.fallbacks == []
        # the entry is left to ordinary version-mismatch eviction
        assert cache.get(self.REQUEST, source_generation=1) is not MISS

    def test_unpatchable_variant_is_evicted_alone(self):
        cache = self._cache_with([FakeInstance(1)])
        sibling = ScanRequest("a1", "S1", "city", op="extent")
        cache.put(sibling, [FakeInstance(3)], source_generation=1)
        reply = DeltaReply((_step(1, 2, DeltaRecord("rescan", "person")),))
        outcome = cache.apply_deltas("a1", "S1", 2, lambda since: reply)
        # the rescan marker condemns the person granule — alone; the
        # city granule of the same schema absorbs the step untouched
        assert outcome.granules_patched == 1
        assert outcome.fallbacks == [
            ("extent(a1:S1.person)", "relation marked for rescan")
        ]
        assert cache.get(self.REQUEST, 2) is MISS
        assert [i.oid.number for i in cache.get(sibling, 2)] == [3]

    def test_fetch_is_memoized_per_since_version(self):
        cache = self._cache_with([FakeInstance(1)])
        sibling = ScanRequest("a1", "S1", "city", op="extent")
        cache.put(sibling, [FakeInstance(3)], source_generation=1)
        calls = []

        def fetch(since):
            calls.append(since)
            return DeltaReply((_step(1, 2),))

        outcome = cache.apply_deltas("a1", "S1", 2, fetch)
        assert outcome.granules_patched == 2
        assert outcome.deltas_applied == 1  # one distinct chain replayed
        assert calls == [1]

    def test_fresh_and_unobservable_entries_are_skipped(self):
        cache = ExtentCache()
        cache.put(self.REQUEST, [FakeInstance(1)], source_generation=2)
        unobservable = ScanRequest("a1", "S1", "city", op="extent")
        cache.put(unobservable, [FakeInstance(2)], source_generation=None)

        def fetch(since):  # pragma: no cover - must never be consulted
            raise AssertionError("nothing stale to sync")

        outcome = cache.apply_deltas("a1", "S1", 2, fetch)
        assert outcome.granules_patched == 0 and outcome.fallbacks == []


class TestTransportChanges:
    def test_feedless_object_database_returns_none(self):
        schema = Schema("S1")
        schema.add_class(ClassDef("person").attr("ssn#"))
        agent = FSMAgent("a1")
        agent.host_object_database(ObjectDatabase(schema, agent="h1"))
        transport = InProcessTransport({"a1": agent})
        assert transport.changes(ScanRequest("a1", "S1", "person"), 1) is None

    def test_unknown_agent_reads_as_feedless(self):
        transport = InProcessTransport({})
        assert transport.changes(ScanRequest("a1", "S1", "person"), 1) is None


class TestDeltaLogCapacityRace:
    """Regression: a capacity eviction landing *mid*-``changes_since``
    shifted every index the walk had already verified, so the returned
    "contiguous" suffix could contain an unverified broken link — a
    spuriously contiguous chain the cache would happily replay.  The
    walk now runs over a snapshot taken under the log's lock, so a
    concurrent ``record`` can only be observed entirely or not at all.
    """

    @staticmethod
    def _spliced(log, trigger):
        """Arm *log* so its list mutates itself (one eviction + one
        append, exactly what ``record`` past capacity does) at the
        *trigger*-th element access — the racing writer, made
        deterministic.  The splice bypasses the lock on purpose: if the
        walk still touched the live list, the mutation would land
        mid-walk exactly as a concurrent ``record`` used to."""

        class RacingList(list):
            accesses = 0

            def __getitem__(self, index):
                RacingList.accesses += 1
                if RacingList.accesses == trigger and len(self) >= 2:
                    list.__delitem__(self, slice(0, 1))
                    head = list.__getitem__(self, -1)
                    list.append(
                        self, SourceDelta(head.new_version + 5, head.new_version + 6)
                    )
                return list.__getitem__(self, index)

        log._deltas = RacingList(log._deltas)
        return log

    def test_mid_walk_eviction_never_yields_a_spurious_chain(self):
        for trigger in range(1, 12):
            log = DeltaLog(capacity=8)
            for delta in (_step(1, 2), _step(2, 3), _step(3, 4)):
                log.record(delta)
            self._spliced(log, trigger)
            chain = log.changes_since(2)
            if chain is None:
                continue
            assert chain_is_contiguous(chain, 2, chain[-1].new_version), (
                f"trigger={trigger} returned a broken chain {chain}"
            )

    def test_concurrent_writer_past_capacity_stress(self):
        import threading

        log = DeltaLog(capacity=6)
        version = 0
        for _ in range(6):
            log.record(_step(version, version + 1))
            version += 1
        stop = threading.Event()
        broken = []

        def writer():
            cursor = version
            while not stop.is_set():
                log.record(_step(cursor, cursor + 1))
                cursor += 1

        def reader():
            for _ in range(3_000):
                head = log.head_version
                chain = log.changes_since(head - 3)
                if chain is None or not chain:
                    continue
                if not chain_is_contiguous(chain, head - 3, chain[-1].new_version):
                    broken.append(chain)
                    break

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            reader()
        finally:
            stop.set()
            thread.join(timeout=5)
        assert broken == []

    def test_record_past_capacity_still_evicts_oldest(self):
        log = DeltaLog(capacity=2)
        for delta in (_step(1, 2), _step(2, 3), _step(3, 4)):
            log.record(delta)
        assert len(log) == 2
        assert log.changes_since(1) is None  # evicted span is a gap, not a guess
        assert log.changes_since(2) == (_step(2, 3), _step(3, 4))
