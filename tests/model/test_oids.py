"""OIDs: the §3 federation-wide identifier scheme."""

import copy
import json
import pickle

import pytest

from perfbench.reference import _plain
from repro.errors import OIDError
from repro.logic.terms import Constant
from repro.model import OID, OIDGenerator
from repro.service.serialization import json_safe


class TestOID:
    def test_string_form_matches_paper_example(self):
        oid = OID("FSMagent1", "informix", "PatientDB", "patient-records", 5)
        assert str(oid) == "FSMagent1.informix.PatientDB.patient-records.5"

    def test_roundtrip_parse(self):
        oid = OID("a", "sys", "db", "rel", 42)
        assert OID.parse(str(oid)) == oid

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(OIDError, match="5 dotted components"):
            OID.parse("a.b.c.4")

    def test_parse_rejects_non_integer_number(self):
        with pytest.raises(OIDError, match="integer"):
            OID.parse("a.b.c.d.x")

    def test_components_may_not_contain_separator(self):
        with pytest.raises(OIDError, match="may not contain"):
            OID("a.b", "sys", "db", "rel", 1)

    def test_negative_number_rejected(self):
        with pytest.raises(OIDError):
            OID("a", "s", "d", "r", -1)

    def test_attribute_ref_replaces_number_with_attribute(self):
        oid = OID("agent1", "informix", "PatientDB", "patient-records", 5)
        assert (
            oid.attribute_ref("name")
            == "agent1.informix.PatientDB.patient-records.name"
        )

    def test_same_source(self):
        a = OID("x", "s", "d", "r", 1)
        b = OID("x", "s", "d", "r", 2)
        c = OID("x", "s", "d", "other", 1)
        assert a.same_source(b)
        assert not a.same_source(c)

    def test_ordering_is_stable(self):
        a = OID("x", "s", "d", "r", 1)
        b = OID("x", "s", "d", "r", 2)
        assert a < b


class TestOIDValue:
    """An OID is a value of its own: hashed in C from its parts, equal
    only to an OID, and not a tuple."""

    def test_equal_oids_built_separately_hash_equal(self):
        a = OID("a", "b", "c", "d", 1)
        b = OID.parse("a.b.c.d.1")
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("other", ["a.b.c.d.1", ("a", "b", "c", "d", 1)])
    def test_an_oid_is_not_its_string_or_its_tuple(self, other):
        oid = OID("a", "b", "c", "d", 1)
        assert oid != other and other != oid
        assert not oid == other and not other == oid

    def test_a_dict_keyed_by_an_oid_misses_on_its_dotted_string(self):
        oid = OID("a", "b", "c", "d", 1)
        keyed = {oid: "object"}
        assert keyed.get("a.b.c.d.1") is None
        assert keyed[OID.parse("a.b.c.d.1")] == "object"

    def test_numbers_order_as_numbers(self):
        nine, ten = OID("a", "b", "c", "d", 9), OID("a", "b", "c", "d", 10)
        assert nine < ten and ten > nine and nine <= ten and not ten <= nine
        assert sorted([ten, nine]) == [nine, ten]

    def test_oids_order_by_their_parts(self):
        # as strings "a.x" > "a-.x" ('.' > '-'), as parts "a" < "a-"
        assert OID("a", "x", "c", "d", 1) < OID("a-", "x", "c", "d", 1)

    def test_an_oid_does_not_order_against_a_string(self):
        with pytest.raises(TypeError):
            OID("a", "b", "c", "d", 1) < "a.b.c.d.2"
        with pytest.raises(TypeError):
            "a.b.c.d.2" < OID("a", "b", "c", "d", 1)

    @pytest.mark.parametrize(
        "round_trip",
        [lambda oid: pickle.loads(pickle.dumps(oid)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips_keep_the_oid(self, round_trip):
        oid = OID("a", "b", "c", "d", 7)
        again = round_trip(oid)
        assert type(again) is OID
        assert again == oid and hash(again) == hash(oid)
        assert (again.agent, again.number) == ("a", 7)

    def test_fields_cannot_be_assigned(self):
        oid = OID("a", "b", "c", "d", 1)
        with pytest.raises(AttributeError):
            oid.number = 2  # type: ignore[misc]
        with pytest.raises(AttributeError):
            oid.extra = 1  # type: ignore[attr-defined]

    def test_fields_repr_and_string_are_kept(self):
        oid = OID("agent", "sys", "db", "rel", 12)
        assert (oid.agent, oid.system, oid.database, oid.relation, oid.number) == (
            "agent", "sys", "db", "rel", 12,
        )
        assert repr(oid) == (
            "OID(agent='agent', system='sys', database='db', relation='rel', number=12)"
        )
        assert type(str(oid)) is str and str(oid) == "agent.sys.db.rel.12"

    def test_an_oid_constant_prints_dotted(self):
        # a string constant prints quoted; an OID is not one
        assert str(Constant(OID("a", "b", "c", "d", 1))) == "a.b.c.d.1"
        assert str(Constant("a.b.c.d.1")) == "'a.b.c.d.1'"

    def test_serializers_give_the_dotted_string(self):
        oid = OID("a", "b", "c", "d", 3)
        assert json_safe(oid) == "a.b.c.d.3" and type(json_safe(oid)) is str
        # the benchmark's canonical form: not sorted as a collection
        assert json.dumps(_plain(oid)) == json.dumps("a.b.c.d.3")
        assert json.dumps(_plain([oid])) == json.dumps(["a.b.c.d.3"])


class TestGenerator:
    def test_numbers_start_at_one_per_relation(self):
        generator = OIDGenerator("a", "s", "d")
        assert generator.next_oid("r").number == 1
        assert generator.next_oid("r").number == 2
        assert generator.next_oid("other").number == 1

    def test_issued_lists_touched_relations(self):
        generator = OIDGenerator("a", "s", "d")
        generator.next_oid("r1")
        generator.next_oid("r2")
        assert set(generator.issued()) == {"r1", "r2"}

    def test_generator_validates_components(self):
        with pytest.raises(OIDError):
            OIDGenerator("a.b", "s", "d")
