"""Fact lifting, inheritance rules and the value-context machinery."""

import pytest

from repro.core import SchemaIntegrator
from repro.federation import FSMAgent, lift_facts, inheritance_rules
from repro.federation.evaluation import AgentSource
from repro.federation.mappings import FunctionMapping, MappingRegistry
from repro.logic import att_predicate, inst_predicate
from repro.model import ClassDef, ObjectDatabase, Schema
from repro.workloads import appendix_a, bibliography


@pytest.fixture
def integrated_with_dbs():
    s1, s2, text = appendix_a()
    integrated = SchemaIntegrator(s1, s2, text).run()
    db1 = ObjectDatabase(s1, agent="a1")
    db1.insert("person", {"ssn#": "1", "name": "Ann"})
    db1.insert("lecturer", {"ssn#": "2", "name": "Lee", "salary": "high"})
    db2 = ObjectDatabase(s2, agent="a2")
    db2.insert("human", {"ssn#": "3", "name": "Hugo"})
    db2.insert("professor", {"ssn#": "4", "name": "Paula", "rank": "W3"})
    return integrated, {"S1": db1, "S2": db2}


class TestLiftFacts:
    def test_merged_class_collects_both_extents(self, integrated_with_dbs):
        integrated, databases = integrated_with_dbs
        store = lift_facts(integrated, databases)
        persons = store.facts(inst_predicate("person"))
        # Ann + Lee (S1, lecturer ⊑ person) + Hugo + Paula (S2 side).
        assert len(persons) == 4

    def test_attribute_values_land_on_ancestors(self, integrated_with_dbs):
        integrated, databases = integrated_with_dbs
        store = lift_facts(integrated, databases)
        names = {v for _, v in store.facts(att_predicate("person", "name"))}
        assert names == {"Ann", "Lee", "Hugo", "Paula"}

    def test_subclass_specific_attributes_stay_on_subclass(
        self, integrated_with_dbs
    ):
        integrated, databases = integrated_with_dbs
        store = lift_facts(integrated, databases)
        assert len(store.facts(att_predicate("lecturer", "salary"))) == 1
        assert not store.facts(att_predicate("person", "salary"))

    def test_virtual_classes_get_no_base_facts(self, integrated_with_dbs):
        integrated, databases = integrated_with_dbs
        store = lift_facts(integrated, databases)
        assert not store.facts(inst_predicate("student_faculty"))

    def test_data_mapping_translates_values(self):
        s1 = Schema("S1")
        s1.add_class(ClassDef("m").attr("height_in", "integer"))
        s2 = Schema("S2")
        s2.add_class(ClassDef("n").attr("height_cm", "integer"))
        integrated = SchemaIntegrator(
            s1, s2,
            "assertion S1.m == S2.n\n  attr S1.m.height_in == S2.n.height_cm\nend",
        ).run()
        db1 = ObjectDatabase(s1, agent="a1")
        db1.insert("m", {"height_in": 10})
        db2 = ObjectDatabase(s2, agent="a2")
        db2.insert("n", {"height_cm": 100})
        registry = MappingRegistry()
        merged_attr = next(iter(integrated.cls("m").attributes))
        registry.register(
            merged_attr, "S1", "height_in",
            FunctionMapping(lambda x: round(x * 2.54), "y = 2.54x"),
        )
        store = lift_facts(integrated, {"S1": db1, "S2": db2}, registry)
        values = {v for _, v in store.facts(att_predicate("m", merged_attr))}
        assert values == {25, 100}  # inches converted, cm passed through


class TestInheritanceRules:
    def test_one_rule_per_integrated_link(self, integrated_with_dbs):
        integrated, _ = integrated_with_dbs
        rules = inheritance_rules(integrated)
        assert len(rules) == len(integrated.is_a_links())

    def test_rules_propagate_membership_upward(self, integrated_with_dbs):
        from repro.logic import Atom, QueryEngine

        integrated, databases = integrated_with_dbs
        store = lift_facts(integrated, databases)
        engine = QueryEngine(
            integrated.evaluable_rules() + inheritance_rules(integrated), store
        )
        employees = engine.ask(Atom.of(inst_predicate("employee"), "?o"))
        # Paula (professor → faculty → employee) and Lee
        # (lecturer → faculty via the single Fig 18(c) link → employee).
        assert len(employees) == 2

    def test_the_compiled_program_lives_on_the_integration(self, integrated_with_dbs):
        from repro.federation.evaluation import integration_rules
        from repro.logic import compile_rules

        integrated, _ = integrated_with_dbs
        program = integration_rules(integrated)
        assert program == tuple(
            compile_rules(integrated.evaluable_rules() + inheritance_rules(integrated))
        )
        assert integration_rules(integrated) is program  # compiled once
        child, parent = integrated.is_a_links()[0]
        integrated.remove_is_a(child, parent)
        assert len(integration_rules(integrated)) == len(program) - 1
        integrated.add_is_a(child, parent)
        assert integration_rules(integrated) == program


class TestAgentSource:
    def test_fetch_serves_only_own_schema(self, integrated_with_dbs):
        integrated, databases = integrated_with_dbs
        agent = FSMAgent("a1")
        agent.host_object_database(databases["S1"])
        source = AgentSource("S1", agent, integrated)
        tuples = source.fetch(inst_predicate("person"))
        assert len(tuples) == 2  # Ann + Lee; S2's objects are invisible

    def test_fetch_unknown_predicate_empty(self, integrated_with_dbs):
        integrated, databases = integrated_with_dbs
        agent = FSMAgent("a1")
        agent.host_object_database(databases["S1"])
        source = AgentSource("S1", agent, integrated)
        assert source.fetch("not$a$real$predicate") == set()
        assert source.fetch("plain") == set()

    def test_concepts_enumerates_own_members(self, integrated_with_dbs):
        integrated, databases = integrated_with_dbs
        agent = FSMAgent("a1")
        agent.host_object_database(databases["S1"])
        source = AgentSource("S1", agent, integrated)
        concepts = source.concepts()
        assert inst_predicate("lecturer") in concepts
        assert att_predicate("lecturer", "salary") in concepts
        # professor is purely S2-owned:
        assert inst_predicate("professor") not in concepts

    def test_nested_descriptors_use_the_top_level_mapping(self):
        """A dotted descriptor is translated by its top-level member's
        mapping, as fact lifting translates it."""
        s1, s2, text = bibliography()
        integrated = SchemaIntegrator(s1, s2, text).run()
        db1 = ObjectDatabase(s1, agent="a1")
        db1.insert(
            "Book",
            {"ISBN": "1", "title": "T", "author": {"name": "John", "birthday": "1970"}},
        )
        registry = MappingRegistry()
        registry.register("author", "S1", "author", FunctionMapping(str.upper))
        predicate = att_predicate("Book", "author.name")
        lifted = lift_facts(
            integrated, {"S1": db1, "S2": ObjectDatabase(s2)}, registry
        ).facts(predicate)
        agent = FSMAgent("a1")
        agent.host_object_database(db1)
        fetched = AgentSource("S1", agent, integrated, registry).fetch(predicate)
        assert {value for _, value in lifted} == {"JOHN"}
        assert fetched == lifted


class TestAgentAccounting:
    def test_access_counting(self, integrated_with_dbs):
        _, databases = integrated_with_dbs
        agent = FSMAgent("a9")
        agent.host_object_database(databases["S1"])
        agent.fetch_extent("S1", "person")
        assert agent.access_count == 1
        assert ("S1", "person") in agent.accessed_classes

    def test_unknown_schema_rejected(self):
        from repro.errors import RegistrationError

        with pytest.raises(RegistrationError):
            FSMAgent("a").fetch_extent("ghost", "c")

    def test_duplicate_schema_rejected(self, integrated_with_dbs):
        from repro.errors import RegistrationError

        _, databases = integrated_with_dbs
        agent = FSMAgent("a")
        agent.host_object_database(databases["S1"])
        with pytest.raises(RegistrationError):
            agent.host_object_database(databases["S1"])
