"""The shared wire vocabulary: json_safe, stats_to_dict, query payloads."""

import collections
import enum
import json
import types

import pytest

from repro.errors import QueryError
from repro.federation.query import FederatedQuery
from repro.model.oids import OID
from repro.runtime.metrics import RuntimeMetrics
from repro.service import json_safe, payload_to_query, rows_to_json, stats_to_dict


class TestJsonSafe:
    def test_primitives_pass_through(self):
        for value in (None, True, 3, 2.5, "x"):
            assert json_safe(value) == value

    def test_oid_renders_as_dotted_string(self):
        oid = OID("agent1", "pyoodb", "S1", "person", 7)
        assert json_safe(oid) == str(oid)
        assert isinstance(json_safe(oid), str)

    def test_frozenset_becomes_sorted_list(self):
        assert json_safe(frozenset({"b", "a"})) == ["a", "b"]

    def test_nested_structures_are_json_dumpable(self):
        oid = OID("agent1", "pyoodb", "S1", "person", 7)
        row = {"oid": oid, "children": frozenset({"Tom", "Ann"}), "n": 1}
        safe = json_safe(row)
        assert json.loads(json.dumps(safe)) == safe
        assert safe["children"] == ["Ann", "Tom"]

    def test_unknown_objects_fall_back_to_str(self):
        class Odd:
            def __repr__(self):
                return "odd!"

        assert isinstance(json_safe(Odd()), str)

    def test_rows_preserve_order(self):
        rows = [{"a": 1}, {"a": 2}]
        assert rows_to_json(rows) == [{"a": 1}, {"a": 2}]

    def test_mappings_and_subclasses_serialize_like_their_base_types(self):
        class Level(enum.IntEnum):
            HIGH = 3

        class Name(str):
            pass

        Pair = collections.namedtuple("Pair", "left right")
        oid = OID("agent1", "pyoodb", "S1", "person", 7)
        inner = {"oid": oid, "levels": frozenset({2, 1}), "pair": (1, "a")}
        proxy = types.MappingProxyType(inner)
        assert json_safe(proxy) == json_safe(inner) == {
            "oid": str(oid), "levels": [1, 2], "pair": [1, "a"],
        }
        ordered = collections.OrderedDict([(1, Name("x")), ("b", Level.HIGH)])
        assert json.dumps(json_safe(ordered)) == '{"1": "x", "b": 3}'
        assert json_safe(Pair(oid, {"k": None})) == [str(oid), {"k": None}]


class TestStatsToDict:
    def test_shape_and_round_trip(self):
        metrics = RuntimeMetrics()
        metrics.record_agent_scan("agent-S1")  # also counts one agent_scan
        with metrics.timer("query"):
            pass
        metrics.record_fallback_invalidation("extent(agent-S1:S1.person)")
        doc = stats_to_dict(metrics.snapshot())
        assert set(doc) == {
            "counters", "agent_scans", "fallback_invalidations",
            "missing_shards", "timers",
        }
        assert doc["counters"]["agent_scans"] == 1
        assert doc["agent_scans"] == {"agent-S1": 1}
        assert doc["fallback_invalidations"] == {
            "extent(agent-S1:S1.person)": 1
        }
        timer = doc["timers"]["query"]
        assert timer["count"] == 1
        assert timer["total_ms"] >= 0
        assert json.loads(json.dumps(doc)) == doc


class TestPayloadToQuery:
    def test_textual_form(self):
        query, appendix_b = payload_to_query(
            {"query": "uncle(niece_nephew='John') -> Ussn#"}
        )
        assert query.class_name == "uncle"
        assert dict(query.where) == {"niece_nephew": "John"}
        assert query.select == ("Ussn#",)
        assert appendix_b is False

    def test_structured_form_with_appendix_b(self):
        query, appendix_b = payload_to_query(
            {
                "class": "uncle",
                "where": {"niece_nephew": "John"},
                "select": ["Ussn#"],
                "appendix_b": True,
            }
        )
        assert query.class_name == "uncle"
        assert appendix_b is True

    def test_round_trip_through_payload(self):
        query = FederatedQuery.of("uncle", {"niece_nephew": "John"}, ("Ussn#",))
        again = FederatedQuery.from_payload(query.to_payload())
        assert again == query

    @pytest.mark.parametrize(
        "payload",
        [
            "not a mapping",
            {"query": 7},
            {},
            {"class": ""},
            {"class": "c", "where": "x=1"},
            {"class": "c", "select": [1, 2]},
        ],
    )
    def test_bad_payloads_raise_query_error(self, payload):
        with pytest.raises(QueryError):
            payload_to_query(payload)

    def test_bad_appendix_b_flag(self):
        with pytest.raises(QueryError):
            payload_to_query({"class": "c", "appendix_b": "yes"})
