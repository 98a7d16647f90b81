"""Property tests: Appendix B's top-down evaluator against the bottom-up engine.

Random non-recursive stratified programs over two or three
:class:`SchemaSource` schemas, with negation on lower strata, comparisons
(``=`` binding a fresh variable, ``<`` across ints and strings) and
skolem heads.  :class:`LabelledProgram` over the sources must answer
every goal, and every conjunction of goals with constants, exactly as
:class:`QueryEngine` answers it over the union of the sources' facts.
A program with a recursive rule must be refused by the top-down side.
"""

from collections import Counter
from typing import Dict, List, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError
from repro.logic import (
    Atom,
    Comparison,
    FactStore,
    LabelledProgram,
    Literal,
    QueryEngine,
    SchemaSource,
    Variable,
    evaluate,
    negated,
    source_from_facts,
)
from repro.logic.atoms import Skolem
from repro.logic.rules import DatalogRule

#: predicate -> (arity, stratum level); level 0 predicates are base facts
PREDICATES = {"e": (2, 0), "f": (1, 0), "g": (2, 0), "p": (2, 1), "q": (1, 2), "r": (2, 3)}
DERIVED = [name for name, (_, level) in PREDICATES.items() if level > 0]
VARIABLES = ["?x", "?y", "?z"]
#: ints and strings, so ``<`` meets mixed types
DOMAIN = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"]))


def _atom(draw, names):
    name = draw(st.sampled_from(names))
    args = [
        draw(st.one_of(st.sampled_from(VARIABLES), DOMAIN))
        for _ in range(PREDICATES[name][0])
    ]
    return Atom.of(name, *args)


@st.composite
def rules(draw, head_name):
    """One safe rule for *head_name* reading only lower strata."""
    arity, level = PREDICATES[head_name]
    lower = [name for name, (_, lvl) in PREDICATES.items() if lvl < level]
    body: List[Literal] = []
    bound: Set[str] = set()
    for _ in range(draw(st.integers(1, 2))):
        atom = _atom(draw, lower)
        bound.update(v.name for v in atom.variables())
        body.append(Literal(atom))
    if not bound:
        return None
    variables = sorted(bound)
    comparison = draw(st.sampled_from(["none", "bind", "less"]))
    if comparison == "bind":  # ?w = ?x or ?w = constant binds a fresh variable
        value = draw(st.one_of(st.sampled_from(variables), DOMAIN))
        body.append(Literal(Comparison.of("?w", "=", value)))
        variables.append("w")
    elif comparison == "less":
        left = draw(st.sampled_from(variables))
        right = draw(st.one_of(st.sampled_from(variables), DOMAIN))
        body.append(Literal(Comparison.of(f"?{left}", "<", right)))
    if draw(st.booleans()):
        name = draw(st.sampled_from(lower))
        args = [
            f"?{draw(st.sampled_from(variables))}" for _ in range(PREDICATES[name][0])
        ]
        body.append(negated(Atom.of(name, *args)))
    head_args = [f"?{draw(st.sampled_from(variables))}" for _ in range(arity)]
    if draw(st.booleans()):  # a skolem head: a virtual object per binding
        keys = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=2))
        body.append(
            Literal(Skolem(Variable("s"), head_name, tuple(Variable(k) for k in keys)))
        )
        head_args[0] = "?s"
    return DatalogRule(Atom.of(head_name, *head_args), tuple(body))


@st.composite
def programs(draw):
    program = []
    for head_name in DERIVED:
        for _ in range(draw(st.integers(0, 2))):
            rule = draw(rules(head_name))
            if rule is not None:
                program.append(rule)
    return program


@st.composite
def schema_facts(draw):
    """Facts per schema: base predicates, and a few local facts of derived
    predicates (``temp ∪ temp'``)."""
    schemas = []
    for _ in range(draw(st.integers(2, 3))):
        facts: Dict[str, Set[tuple]] = {}
        for name, (arity, level) in PREDICATES.items():
            size = 5 if level == 0 else 2
            facts[name] = draw(st.sets(st.tuples(*[DOMAIN] * arity), max_size=size))
        schemas.append(facts)
    return schemas


@st.composite
def goals(draw, max_goals):
    return [_atom(draw, list(PREDICATES)) for _ in range(draw(st.integers(1, max_goals)))]


def build(schemas) -> List[SchemaSource]:
    return [source_from_facts(f"S{index}", facts) for index, facts in enumerate(schemas)]


def union_store(schemas) -> FactStore:
    store = FactStore()
    for facts in schemas:
        for predicate, tuples in facts.items():
            for values in tuples:
                store.add(predicate, values)
    return store


def bottom_up(program, schemas) -> QueryEngine:
    """The bottom-up engine over the materialized union of every schema."""
    return QueryEngine([], evaluate(program, union_store(schemas)))


def answer_set(answers) -> Set[tuple]:
    return {tuple(sorted(answer.items())) for answer in answers}


@settings(max_examples=150, deadline=None)
@given(programs(), schema_facts(), goals(1))
def test_single_goal_answers_match_bottom_up(program, schemas, goal_list):
    labelled = LabelledProgram(program, build(schemas))
    goal = goal_list[0]
    if not labelled.known_predicate(goal.predicate):
        with pytest.raises(EvaluationError, match="unknown predicate"):
            labelled.evaluation(goal)
        return
    expected = bottom_up(program, schemas).ask(goal)
    assert answer_set(labelled.evaluation(goal)) == answer_set(expected)


@settings(max_examples=150, deadline=None)
@given(programs(), schema_facts(), goals(3))
def test_conjunctions_match_bottom_up_with_one_fetch_per_concept(
    program, schemas, goal_list
):
    sources = build(schemas)
    fetched: Counter = Counter()
    for source in sources:
        fetch = source.fetch

        def counting(predicate, fetch=fetch, name=source.name):
            fetched[(name, predicate)] += 1
            return fetch(predicate)

        source.fetch = counting  # type: ignore[method-assign]
    labelled = LabelledProgram(program, sources)
    if not all(labelled.known_predicate(goal.predicate) for goal in goal_list):
        with pytest.raises(EvaluationError, match="unknown predicate"):
            labelled.ask(*goal_list)
        return
    answers = labelled.ask(*goal_list)
    expected = bottom_up(program, schemas).ask(*goal_list)
    assert answer_set(answers) == answer_set(expected)
    assert all(count == 1 for count in fetched.values()), fetched
    # the order depends on neither the source order nor set iteration
    assert LabelledProgram(program, build(schemas)[::-1]).ask(*goal_list) == answers


@settings(max_examples=50, deadline=None)
@given(programs(), schema_facts(), st.sampled_from(DERIVED))
def test_recursive_programs_are_refused_top_down(program, schemas, head_name):
    arity = PREDICATES[head_name][0]
    head = Atom.of(head_name, *VARIABLES[:arity])
    recursive = DatalogRule(head, (Literal(head),))
    labelled = LabelledProgram(program + [recursive], build(schemas))
    with pytest.raises(EvaluationError, match="recursive virtual rule"):
        labelled.evaluation(Atom.of(head_name, *VARIABLES[:arity]))
