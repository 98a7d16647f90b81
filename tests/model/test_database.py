"""ObjectDatabase: extents, value sets, aggregation traversal (§2-§3)."""

import pytest

from repro.errors import InstanceError, UnknownClassError
from repro.model import ClassDef, ObjectDatabase, Schema


@pytest.fixture
def schema() -> Schema:
    s = Schema("S")
    s.add_class(ClassDef("Dept").attr("d_name"))
    s.add_class(
        ClassDef("Empl").attr("e_name").attr("skills", multivalued=True)
        .agg("work_in", "Dept", "[m:1]")
    )
    s.add_class(ClassDef("Manager", parents=["Empl"]).attr("bonus", "integer"))
    return s


@pytest.fixture
def database(schema) -> ObjectDatabase:
    db = ObjectDatabase(schema, agent="a1")
    dept = db.insert("Dept", {"d_name": "R&D"})
    db.insert("Empl", {"e_name": "Kim", "skills": ["sql"]}, {"work_in": dept.oid})
    db.insert("Manager", {"e_name": "Lee", "bonus": 10}, {"work_in": dept.oid})
    return db


class TestExtents:
    def test_direct_extent_excludes_subclasses(self, database):
        assert len(database.direct_extent("Empl")) == 1

    def test_extent_includes_subclass_instances(self, database):
        # {<o: Manager>} ⊆ {<o: Empl>} — the typing O-term semantics.
        names = {obj["e_name"] for obj in database.extent("Empl")}
        assert names == {"Kim", "Lee"}

    def test_unknown_class_rejected(self, database):
        with pytest.raises(UnknownClassError):
            database.extent("Ghost")

    def test_select_scans_with_predicate(self, database):
        hits = database.select("Empl", lambda o: o["e_name"] == "Lee")
        assert len(hits) == 1 and hits[0].class_name == "Manager"


class TestValueSets:
    def test_value_set_is_non_null_subset(self, database, schema):
        database.insert("Empl", {"e_name": None})
        assert database.value_set("Empl", "e_name") == {"Kim", "Lee"}

    def test_value_set_flattens_multivalued(self, database):
        database.insert("Empl", {"skills": ["ml", "sql"]})
        assert database.value_set("Empl", "skills") == {"sql", "ml"}


class TestAggregation:
    def test_follow_dereferences_target(self, database):
        [kim] = database.select("Empl", lambda o: o["e_name"] == "Kim")
        [dept] = database.follow(kim, "work_in")
        assert dept["d_name"] == "R&D"

    def test_follow_missing_value_yields_empty(self, database):
        empl = database.insert("Empl", {"e_name": "NoDept"})
        assert database.follow(empl, "work_in") == []

    def test_by_oid_unknown_raises(self, database, schema):
        from repro.model import OID

        with pytest.raises(InstanceError):
            database.by_oid(OID("x", "y", "z", "r", 99))


class TestInsertion:
    def test_oids_follow_section3_scheme(self, database):
        [kim] = database.select("Empl", lambda o: o["e_name"] == "Kim")
        assert str(kim.oid) == "a1.pyoodb.S.Empl.1"

    def test_validation_uses_inherited_members(self, database):
        # Manager inherits e_name from Empl — insert above already proves
        # it; a bad value must still be caught through inheritance.
        with pytest.raises(InstanceError):
            database.insert("Manager", {"e_name": 42})

    def test_counts(self, database):
        assert database.counts() == {"Dept": 1, "Empl": 1, "Manager": 1}
        assert len(database) == 3
