"""Property tests for layered fact stores and the overlay ``evaluate``.

``evaluate`` writes derived facts into a layer over its read-only base
instead of copying the base.  A naive, copy-based evaluator written here
is the reference: on random small stratified programs with recursion
and negation, both must derive the same facts, the base must come out
untouched, evaluations sharing one base must not see each other's
facts, and the layered result's ``len``/``facts``/``predicates``/
iteration must be exact (benchmark counters read them).  A patched
store's per-object records must equal records rebuilt from its facts.
"""

import copy
from typing import Dict, List, Set

from hypothesis import given, settings, strategies as st

from repro.logic import (
    Atom,
    FactStore,
    Literal,
    QueryEngine,
    Variable,
    evaluate,
    negated,
    stratify,
)
from repro.logic.rules import DatalogRule

#: predicate -> (arity, stratum level); level 0 predicates are base facts
PREDICATES = {"e": (2, 0), "f": (1, 0), "p": (2, 1), "q": (1, 2), "r": (2, 3)}
BASE = [name for name, (_, level) in PREDICATES.items() if level == 0]
DERIVED = [name for name, (_, level) in PREDICATES.items() if level > 0]
VARIABLES = ["?x", "?y", "?z"]
DOMAIN = st.integers(0, 4)


@st.composite
def rules(draw, head_name):
    """One safe rule for *head_name*: positive atoms may use any predicate
    up to the head's level (recursion included), negated atoms only
    lower levels, so every program is stratifiable."""
    arity, level = PREDICATES[head_name]
    usable = [name for name, (_, lvl) in PREDICATES.items() if lvl <= level]
    lower = [name for name, (_, lvl) in PREDICATES.items() if lvl < level]
    body: List[Literal] = []
    bound: Set[str] = set()
    for name in draw(st.lists(st.sampled_from(usable), min_size=1, max_size=2)):
        args = [
            draw(st.one_of(st.sampled_from(VARIABLES), DOMAIN))
            for _ in range(PREDICATES[name][0])
        ]
        bound.update(arg for arg in args if isinstance(arg, str))
        body.append(Literal(Atom.of(name, *args)))
    if not bound:
        return None
    variables = sorted(bound)
    if draw(st.booleans()):
        name = draw(st.sampled_from(lower))
        args = [draw(st.sampled_from(variables)) for _ in range(PREDICATES[name][0])]
        body.append(negated(Atom.of(name, *args)))
    head = Atom.of(head_name, *[draw(st.sampled_from(variables)) for _ in range(arity)])
    return DatalogRule(head, tuple(body))


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
def base_facts(draw):
    return {
        name: draw(
            st.sets(
                st.tuples(*[DOMAIN] * PREDICATES[name][0]), max_size=8
            )
        )
        for name in BASE
    }


def build(facts: Dict[str, Set[tuple]]) -> FactStore:
    store = FactStore()
    for predicate, tuples in facts.items():
        for values in tuples:
            store.add(predicate, values)
    return store


def _matches(atom: Atom, values: tuple, binding: Dict[str, object]):
    extended = dict(binding)
    for arg, value in zip(atom.args, values):
        if isinstance(arg, Variable):
            if extended.setdefault(arg.name, value) != value:
                return None
        elif arg.value != value:
            return None
    return extended


def _ground(atom: Atom, binding: Dict[str, object]) -> tuple:
    return tuple(
        binding[arg.name] if isinstance(arg, Variable) else arg.value
        for arg in atom.args
    )


def reference(program, facts: Dict[str, Set[tuple]]) -> Dict[str, Set[tuple]]:
    """Naive stratified fixpoint over a *copy* of the base facts."""
    result = {predicate: set(tuples) for predicate, tuples in facts.items()}
    for stratum in stratify(program):
        changed = True
        while changed:
            changed = False
            for rule in stratum:
                bindings = [{}]
                for literal in rule.body:
                    if not literal.positive:
                        continue
                    atom = literal.atom
                    bindings = [
                        extended
                        for binding in bindings
                        for values in result.get(atom.predicate, ())
                        if (extended := _matches(atom, values, binding)) is not None
                    ]
                for literal in rule.body:
                    if literal.positive:
                        continue
                    atom = literal.atom
                    bindings = [
                        binding
                        for binding in bindings
                        if _ground(atom, binding) not in result.get(atom.predicate, ())
                    ]
                for binding in bindings:
                    head = _ground(rule.head, binding)
                    known = result.setdefault(rule.head.predicate, set())
                    if head not in known:
                        known.add(head)
                        changed = True
    return {predicate: tuples for predicate, tuples in result.items() if tuples}


def contents(store: FactStore) -> Dict[str, Set[tuple]]:
    return {predicate: set(store.facts(predicate)) for predicate in store.predicates()}


def answers(engine: QueryEngine, goal: Atom) -> List[tuple]:
    """*goal*'s answers as sorted binding tuples, duplicates kept."""
    return sorted(tuple(sorted(row.items())) for row in engine.ask(goal))


def assert_exact(store: FactStore, expected: Dict[str, Set[tuple]]) -> None:
    listed = list(store)
    assert len(listed) == len(set(listed))  # iteration never repeats a fact
    assert set(listed) == {(p, v) for p, tuples in expected.items() for v in tuples}
    assert len(store) == sum(len(tuples) for tuples in expected.values())
    assert set(store.predicates()) == set(expected)
    assert len(store.predicates()) == len(set(store.predicates()))
    for predicate, tuples in expected.items():
        assert store.facts(predicate) == tuples


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(programs(), base_facts())
def test_overlay_derives_what_the_copy_reference_derives(program, facts):
    result = evaluate(program, build(facts))
    assert contents(result) == reference(program, facts)


@SETTINGS
@given(programs(), base_facts())
def test_base_is_unchanged(program, facts):
    base = build(facts)
    size, before = len(base), contents(base)
    evaluate(program, base)
    assert len(base) == size
    assert contents(base) == before


@SETTINGS
@given(programs(), programs(), base_facts())
def test_evaluations_sharing_a_base_stay_apart(first, second, facts):
    base = build(facts)
    one = evaluate(first, base)
    two = evaluate(second, base)
    # probe both after both exist: lazy indexes and cached unions of one
    # overlay must not leak into the other
    assert contents(one) == reference(first, facts)
    assert contents(two) == reference(second, facts)
    assert contents(base) == {p: t for p, t in facts.items() if t}


@SETTINGS
@given(programs(), base_facts())
def test_layered_result_counts_are_exact(program, facts):
    base = build(facts)
    result = evaluate(program, base)
    expected = reference(program, facts)
    assert_exact(result, expected)
    derived = sum(len(t) for t in expected.values()) - sum(len(t) for t in facts.values())
    assert len(result) - len(base) == derived


@SETTINGS
@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), DOMAIN, DOMAIN,
                  st.sets(st.integers(0, 2), min_size=1)),
        max_size=25,
    ),
    st.lists(st.tuples(st.sampled_from(["a", "b", "d"]), DOMAIN, DOMAIN), max_size=6),
)
def test_layers_behave_as_their_union(placed, added):
    """Facts spread over overlapping parent layers, plus own-layer adds,
    read back exactly as one flat store holding their union."""
    parents = [FactStore() for _ in range(3)]
    flat = FactStore()
    for predicate, left, right, layers in placed:
        for layer in layers:
            parents[layer].add(predicate, (left, right))
        flat.add(predicate, (left, right))
    store = FactStore(FactStore(parents[0], parents[1]), parents[2])
    for predicate, left, right in added:
        assert store.add(predicate, (left, right)) == flat.add(predicate, (left, right))
    assert_exact(store, contents(flat))
    layered, union = QueryEngine((), store), QueryEngine((), flat)
    for predicate in ("a", "b", "c", "d"):
        for value in range(5):
            # index probes at each position, and with both positions bound
            for goal in (
                Atom.of(predicate, value, "?y"),
                Atom.of(predicate, "?x", value),
                Atom.of(predicate, value, 2),
            ):
                assert answers(layered, goal) == answers(union, goal)
            assert store.contains(predicate, (value, 1)) == flat.contains(
                predicate, (value, 1)
            )


FACT = st.one_of(
    st.tuples(st.sampled_from(["a", "b", "c"]), DOMAIN, DOMAIN),
    st.tuples(st.sampled_from(["u", "a"]), DOMAIN),  # unary, and two arities
)


def flat(facts) -> FactStore:
    store = FactStore()
    for predicate, *values in facts:
        store.add(predicate, tuple(values))
    return store


@SETTINGS
@given(st.lists(FACT, max_size=25), st.lists(FACT, max_size=8), st.lists(FACT, max_size=8))
def test_patched_records_equal_records_rebuilt(facts, removed, added):
    """``patched`` carries the records over, rebuilding only the touched
    objects' ones: they equal records built from scratch over the new
    store's facts, and the parent's records are left as they were."""
    store = flat(facts)
    before = copy.deepcopy(store.records())
    patched = store.patched(flat(removed), flat(added))
    assert patched._records is not None  # kept, not dropped for a rebuild
    rebuilt = FactStore()
    for predicate, values in patched:
        rebuilt.add(predicate, values)
    assert patched.records() == rebuilt.records()
    assert store.records() == before
