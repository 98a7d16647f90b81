"""The FederationSession workflow."""

import pytest

from repro import FederationSession
from repro.federation import Column
from repro.sources import MemorySourceAdapter, RelationSpec
from repro.workloads import genealogy


@pytest.fixture
def session() -> FederationSession:
    _, _, text, databases = genealogy()
    session = FederationSession()
    session.add_database(databases["S1"])
    session.add_database(databases["S2"])
    session.declare(text)
    session.integrate()
    return session


class TestWorkflow:
    def test_two_schema_quickstart(self, session):
        rows = session.query("uncle(niece_nephew='John') -> Ussn#")
        assert rows[0]["Ussn#"] == "B1"

    def test_integrated_property(self, session):
        assert session.integrated is not None
        assert "uncle" in session.integrated.classes

    def test_agent_names_are_generated(self, session):
        assert set(session.fsm.schema_names()) == {"S1", "S2"}

    def test_identify_declares_same_object_spec(self):
        _, _, text, databases = genealogy()
        session = FederationSession()
        session.add_database(databases["S1"])
        session.add_database(databases["S2"])
        spec = session.identify("S1.brother.Bssn#", "S2.uncle.Ussn#")
        assert spec.left_class == "brother"
        assert spec.right_key == "Ussn#"
        assert session.fsm.same_specs == [spec]


class TestRelationalEntry:
    def test_relational_database_joins_federation(self):
        adapter = MemorySourceAdapter(
            "LibDB",
            {"books": [{"isbn": "1", "title": "Logic"}]},
            [RelationSpec("books", (Column("isbn"), Column("title")))],
            agent="lib-agent",
            system="informix",
        )

        session = FederationSession()
        session.add_source(adapter.database("S1"))

        from repro.model import ClassDef, ObjectDatabase, Schema

        s2 = Schema("S2")
        s2.add_class(ClassDef("publication").attr("isbn").attr("title"))
        db2 = ObjectDatabase(s2, agent="a2")
        db2.insert("publication", {"isbn": "2", "title": "Sets"})
        session.add_database(db2)

        session.declare(
            """
            assertion S1.books == S2.publication
              attr S1.books.isbn == S2.publication.isbn
              attr S1.books.title == S2.publication.title
            end
            """
        )
        session.integrate()
        rows = session.query("books() -> title")
        assert {row["title"] for row in rows} == {"Logic", "Sets"}
        [logic] = [row for row in rows if row["title"] == "Logic"]
        assert str(logic["oid"]) == "lib-agent.informix.LibDB.books.1"
