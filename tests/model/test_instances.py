"""Object instances: ground complex O-terms with validation (§2)."""

import pytest

from repro.errors import InstanceError, UnknownAttributeError
from repro.model import OID, ClassDef, ObjectInstance


def oid(n: int = 1, relation: str = "Empl") -> OID:
    return OID("a", "s", "d", relation, n)


@pytest.fixture
def empl_class() -> ClassDef:
    return (
        ClassDef("Empl")
        .attr("e_name")
        .attr("skills", multivalued=True)
        .agg("work_in", "Dept", "[m:1]")
    )


class TestValues:
    def test_attributes_and_aggregations_accessible(self, empl_class):
        instance = ObjectInstance(
            oid(), "Empl", {"e_name": "Kim"}, {"work_in": oid(9, "Dept")}
        )
        assert instance["e_name"] == "Kim"
        assert instance["work_in"] == oid(9, "Dept")

    def test_multivalued_values_normalize_to_frozenset(self):
        instance = ObjectInstance(oid(), "Empl", {"skills": ["a", "b", "a"]})
        assert instance["skills"] == frozenset({"a", "b"})

    def test_strings_are_not_treated_as_collections(self):
        instance = ObjectInstance(oid(), "Empl", {"e_name": "Kim"})
        assert instance["e_name"] == "Kim"

    def test_missing_member_raises(self, empl_class):
        instance = ObjectInstance(oid(), "Empl")
        with pytest.raises(UnknownAttributeError):
            instance["ghost"]

    def test_get_with_default(self):
        instance = ObjectInstance(oid(), "Empl")
        assert instance.get("ghost", "dflt") == "dflt"

    def test_aggregation_accepts_oid_sets(self):
        targets = [oid(1, "Dept"), oid(2, "Dept")]
        instance = ObjectInstance(oid(), "Empl", aggregations={"work_in": targets})
        assert instance["work_in"] == frozenset(targets)

    def test_aggregation_rejects_non_oid_targets(self):
        with pytest.raises(InstanceError):
            ObjectInstance(oid(), "Empl", aggregations={"work_in": ["str"]})


class TestValidation:
    def test_valid_instance_passes(self, empl_class):
        instance = ObjectInstance(
            oid(), "Empl", {"e_name": "Kim", "skills": ["sql"]},
            {"work_in": oid(1, "Dept")},
        )
        instance.validate_against(empl_class)

    def test_wrong_class_rejected(self, empl_class):
        instance = ObjectInstance(oid(), "Dept")
        with pytest.raises(InstanceError, match="class"):
            instance.validate_against(empl_class)

    def test_unknown_attribute_rejected(self, empl_class):
        instance = ObjectInstance(oid(), "Empl", {"ghost": 1})
        with pytest.raises(InstanceError, match="ghost"):
            instance.validate_against(empl_class)

    def test_type_mismatch_rejected(self, empl_class):
        instance = ObjectInstance(oid(), "Empl", {"e_name": 42})
        with pytest.raises(InstanceError, match="conform"):
            instance.validate_against(empl_class)

    def test_oid_in_string_attribute_rejected(self, empl_class):
        instance = ObjectInstance(oid(), "Empl", {"e_name": oid(2)})
        with pytest.raises(InstanceError, match="conform"):
            instance.validate_against(empl_class)

    def test_scalar_in_multivalued_slot_rejected(self, empl_class):
        instance = ObjectInstance(oid(), "Empl")
        instance._attributes["skills"] = "sql"  # bypass normalization
        with pytest.raises(InstanceError, match="multivalued"):
            instance.validate_against(empl_class)

    def test_set_in_single_valued_slot_rejected(self, empl_class):
        instance = ObjectInstance(oid(), "Empl", {"e_name": ["a", "b"]})
        with pytest.raises(InstanceError, match="single-valued"):
            instance.validate_against(empl_class)

    def test_missing_attributes_are_allowed(self, empl_class):
        ObjectInstance(oid(), "Empl").validate_against(empl_class)

    def test_unknown_aggregation_rejected(self, empl_class):
        instance = ObjectInstance(oid(), "Empl", aggregations={"ghost": oid(2)})
        with pytest.raises(InstanceError, match="ghost"):
            instance.validate_against(empl_class)


class TestMisc:
    def test_repr_shows_paper_like_form(self):
        instance = ObjectInstance(oid(), "Empl", {"e_name": "Kim"})
        assert repr(instance).startswith("<a.s.d.Empl.1: Empl |")

    def test_equality_and_hash(self):
        a = ObjectInstance(oid(), "Empl", {"e_name": "Kim"})
        b = ObjectInstance(oid(), "Empl", {"e_name": "Kim"})
        assert a == b
        assert hash(a) == hash(b)

    def test_as_tuple_projection(self):
        instance = ObjectInstance(oid(), "Empl", {"e_name": "Kim"})
        assert instance.as_tuple(("e_name", "ghost")) == ("Kim", None)
