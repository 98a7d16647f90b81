"""Shard merges key extent slices by OID and refuse records without one.

:func:`~repro.runtime.sharding.merge_shard_values` folds the per-shard
instance lists both modes hand it with first-occurrence OID dedup.
"""

import pytest

from repro.errors import ShardMergeError
from repro.model.instances import ObjectInstance
from repro.model.oids import OID
from repro.runtime.sharding import merge_shard_values


class TestMergeShardValuesOids:
    """Satellite regression: the old merge keyed on
    ``getattr(instance, "oid", instance)`` — an OID-less record was
    silently deduplicated *by its own value* (or crashed unhashable);
    now the merge refuses loudly."""

    def test_oidless_records_raise_instead_of_silently_deduping(self):
        class Record:
            def __init__(self, payload):
                self.payload = payload

            def __hash__(self):
                return 0  # every record collides: the old code dropped these

            def __eq__(self, other):
                return isinstance(other, Record)

        first, second = Record("from-shard-0"), Record("from-shard-1")
        with pytest.raises(ShardMergeError) as caught:
            merge_shard_values("extent", [[first], [second]])
        assert "oid" in str(caught.value)
        assert caught.value.op == "extent"

    def test_unhashable_oidless_records_raise_the_typed_error(self):
        # pre-fix this path died on TypeError: unhashable type 'dict'
        with pytest.raises(ShardMergeError):
            merge_shard_values("direct_extent", [[{"ssn": 1}], [{"ssn": 2}]])

    def test_instances_with_oids_still_merge(self):
        first = ObjectInstance(
            OID("agent1", "pyoodb", "S1", "person", 1), "person", {"a": 1}
        )
        second = ObjectInstance(
            OID("agent1", "pyoodb", "S1", "person", 2), "person", {"a": 2}
        )
        assert merge_shard_values("extent", [[first], [second], [first]]) == [
            first,
            second,
        ]
