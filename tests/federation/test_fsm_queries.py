"""The FSM layer: registration, integration, federated queries (E-Q)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError, RegistrationError
from repro.federation import FSM, FSMAgent, FederatedQuery, SameObjectSpec, evaluation
from repro.federation.evaluation import AgentSource
from repro.model import ClassDef, ObjectDatabase, Schema
from repro.workloads import genealogy

#: class, attribute and output names the textual query form accepts
_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_#$-]{0,8}", fullmatch=True)


@pytest.fixture
def genealogy_fsm() -> FSM:
    s1, s2, text, databases = genealogy()
    fsm = FSM()
    agent1, agent2 = FSMAgent("agent1"), FSMAgent("agent2")
    agent1.host_object_database(databases["S1"])
    agent2.host_object_database(databases["S2"])
    fsm.register_agent(agent1)
    fsm.register_agent(agent2)
    fsm.declare(text)
    fsm.integrate("S1", "S2")
    return fsm


class TestRegistration:
    def test_duplicate_agent_rejected(self, genealogy_fsm):
        with pytest.raises(RegistrationError):
            genealogy_fsm.register_agent(FSMAgent("agent1"))

    def test_duplicate_schema_rejected(self):
        fsm = FSM()
        s = Schema("S1")
        s.add_class(ClassDef("a"))
        agent1, agent2 = FSMAgent("x"), FSMAgent("y")
        agent1.host_object_database(ObjectDatabase(s))
        other = Schema("S1")
        other.add_class(ClassDef("a"))
        agent2.host_object_database(ObjectDatabase(other))
        fsm.register_agent(agent1)
        with pytest.raises(RegistrationError, match="already hosted"):
            fsm.register_agent(agent2)

    def test_schema_export(self, genealogy_fsm):
        assert "parent" in genealogy_fsm.schema("S1").class_names


class TestAppendixBQuery:
    """The headline query: ?- uncle(John, y) answered across schemas."""

    def test_derived_uncle_found(self, genealogy_fsm):
        rows = genealogy_fsm.query("uncle(niece_nephew='John') -> Ussn#")
        assert [row["Ussn#"] for row in rows] == ["B1"]

    def test_local_and_derived_uncles_union(self, genealogy_fsm):
        rows = genealogy_fsm.query("uncle() -> Ussn#")
        assert {row["Ussn#"] for row in rows} == {"U9", "B1", "B2"}

    def test_without_derivation_assertion_s1_ignored(self):
        """The paper's motivation: drop the assertion and S1 no longer
        contributes to uncle queries."""
        s1, s2, _, databases = genealogy()
        fsm = FSM()
        agent1, agent2 = FSMAgent("agent1"), FSMAgent("agent2")
        agent1.host_object_database(databases["S1"])
        agent2.host_object_database(databases["S2"])
        fsm.register_agent(agent1)
        fsm.register_agent(agent2)
        fsm.integrate("S1", "S2")  # no assertions at all
        rows = fsm.query("uncle() -> Ussn#")
        assert {row["Ussn#"] for row in rows} == {"U9"}

    def test_appendix_b_top_down_agrees_with_bottom_up(self, genealogy_fsm):
        query = FederatedQuery.parse("uncle(niece_nephew='John') -> Ussn#")
        bottom_up = query.run(genealogy_fsm.engine())
        top_down = query.run(genealogy_fsm.appendix_b())
        assert [r["Ussn#"] for r in bottom_up] == [r["Ussn#"] for r in top_down]

    def test_appendix_b_respects_autonomy(self, genealogy_fsm):
        """Agents only ever serve single-concept fetches."""
        program = genealogy_fsm.appendix_b()
        query = FederatedQuery.parse("uncle() -> Ussn#")
        query.run(program)
        agent = genealogy_fsm.agent("agent1")
        assert agent.access_count > 0
        assert agent.accessed_classes <= {("S1", "parent"), ("S1", "brother")}

    def test_appendix_b_fetches_each_concept_once_per_query(
        self, genealogy_fsm, monkeypatch
    ):
        """Goals and rule bodies share one set of tables per query, so no
        (source, predicate) extension is fetched twice."""
        fetched = Counter()

        class CountingSource(AgentSource):
            def fetch(self, predicate):
                fetched[(self.name, predicate)] += 1
                return super().fetch(predicate)

        monkeypatch.setattr(evaluation, "AgentSource", CountingSource)
        query = FederatedQuery.parse("uncle(niece_nephew='John') -> Ussn#")
        rows = query.run(genealogy_fsm.appendix_b())
        assert [row["Ussn#"] for row in rows] == ["B1"]
        assert fetched
        assert max(fetched.values()) == 1, fetched


class TestQueryParsing:
    def test_textual_roundtrip(self):
        query = FederatedQuery.parse("uncle(niece_nephew='John') -> Ussn#, name")
        assert query.class_name == "uncle"
        assert dict(query.where) == {"niece_nephew": "John"}
        assert query.select == ("Ussn#", "name")

    def test_question_prefix_accepted(self):
        query = FederatedQuery.parse("?- uncle(Ussn#='B1')")
        assert dict(query.where) == {"Ussn#": "B1"}

    def test_numeric_constants(self):
        query = FederatedQuery.parse("stock(price=42)")
        assert dict(query.where) == {"price": 42}

    def test_malformed_rejected(self):
        with pytest.raises(QueryError):
            FederatedQuery.parse("not a query")

    def test_quoted_constants_may_hold_commas_and_parentheses(self):
        query = FederatedQuery.parse("person(name='Smith, John', note=\"it's (x)\") -> ssn")
        assert dict(query.where) == {"name": "Smith, John", "note": "it's (x)"}
        assert query.select == ("ssn",)
        assert FederatedQuery.parse(str(query)) == query

    def test_a_quoted_token_that_is_no_literal_keeps_its_text(self):
        for text, value in [
            ("person(name='O'Brien') -> ssn", "O'Brien"),  # unbalanced inner quote
            (r"person(name='a\x') -> ssn", "a\\x"),  # bad escape
            ("person(name='a\\') -> ssn", "a\\"),  # the closing quote escaped
        ]:
            assert dict(FederatedQuery.parse(text).where) == {"name": value}, text

    def test_a_quoted_constant_reads_python_escapes(self):
        query = FederatedQuery.parse(r"person(path='C:\new', dir='C:\\new') -> ssn")
        assert dict(query.where) == {"path": "C:\new", "dir": "C:\\new"}
        assert FederatedQuery.parse(str(query)) == query

    @settings(max_examples=200, deadline=None)
    @given(
        class_name=_NAMES,
        where=st.dictionaries(
            _NAMES,
            st.one_of(
                st.text(),
                st.integers(),
                st.floats(allow_nan=False),
                st.booleans(),
            ),
            max_size=4,
        ),
        select=st.lists(_NAMES, max_size=3),
    )
    def test_printing_a_query_parses_back(self, class_name, where, select):
        query = FederatedQuery.of(class_name, where, select)
        assert FederatedQuery.parse(str(query)) == query

    def test_unknown_algorithm_rejected(self, genealogy_fsm):
        with pytest.raises(QueryError, match="unknown algorithm"):
            genealogy_fsm.integrate("S1", "S2", algorithm="quantum")


class TestIntersectionQueries:
    """Principle 3 rules drive real queries through same-object facts."""

    def test_virtual_intersection_class_populated(self):
        s1 = Schema("S1")
        s1.add_class(ClassDef("faculty").attr("fssn#").attr("income", "integer"))
        s2 = Schema("S2")
        s2.add_class(ClassDef("student").attr("ssn#").attr("study_support", "integer"))
        db1 = ObjectDatabase(s1, agent="a1")
        db2 = ObjectDatabase(s2, agent="a2")
        db1.insert("faculty", {"fssn#": "1", "income": 100})
        db1.insert("faculty", {"fssn#": "2", "income": 200})
        db2.insert("student", {"ssn#": "1", "study_support": 50})
        fsm = FSM()
        a1, a2 = FSMAgent("a1"), FSMAgent("a2")
        a1.host_object_database(db1)
        a2.host_object_database(db2)
        fsm.register_agent(a1)
        fsm.register_agent(a2)
        fsm.declare(
            """
            assertion S1.faculty ^ S2.student
              attr S1.faculty.fssn# == S2.student.ssn#
              attr S1.faculty.income ^ S2.student.study_support
            end
            """
        )
        fsm.add_same_object(
            SameObjectSpec("S1", "faculty", "fssn#", "S2", "student", "ssn#")
        )
        fsm.integrate("S1", "S2")
        engine = fsm.engine()
        working_students = engine.instances_of("faculty_student")
        assert len(working_students) == 1
        only_faculty = engine.instances_of("faculty_only")
        assert len(only_faculty) == 1
