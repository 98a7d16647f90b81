"""Property tests: compiled join plans against a naive nested-loop evaluator.

Every conjunctive join in the package runs a :class:`JoinPlan`
(:func:`compile_body`), so the evaluator written here is the oracle: it
joins a body's positive atoms in body order, fact by fact, over one flat
set of facts, then applies comparisons, skolems and negations to each
binding until none is left.  Random stratified programs (recursion,
negation on lower strata, ``=`` binding from either side, ``<`` across
ints and strings, skolem heads, repeated variables, constants that
match nothing, facts of two arities under one predicate) are evaluated
over stores split across sibling parent layers, some facts held by two
of them.  ``evaluate`` must derive exactly the naive fixpoint, and goal
conjunctions must answer exactly like the naive join.

Star bodies — atoms of one O-term sharing a bound object variable, which
compile into one :class:`~repro.logic.engine._Star` step, constants and
all — get their own
random stores: multi-valued, absent and two-arity attributes, objects
whose facts sit in two sibling layers, predicates that ``evaluate``
derives into the writable layer, facts added after the records were
built, and Appendix B's lazily filled tables.
"""

import operator
from typing import Any, Dict, List, Optional, Set

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EvaluationError
from repro.logic import (
    Atom,
    Comparison,
    ComparisonOp,
    FactStore,
    LabelledProgram,
    Literal,
    QueryEngine,
    Variable,
    evaluate,
    negated,
    source_from_facts,
)
from repro.logic.atoms import Skolem
from repro.logic.engine import _Join, _plan, _Star, compile_body
from repro.logic.rules import DatalogRule
from repro.model import OID

#: predicate -> (arities, stratum level); level 0 predicates are base
#: facts, and ``e`` holds facts of two arities
PREDICATES = {"e": ((2, 1), 0), "f": ((1,), 0), "p": ((2,), 1), "q": ((1,), 2), "r": ((2,), 2)}
BASE = [name for name, (_, level) in PREDICATES.items() if level == 0]
DERIVED = [name for name, (_, level) in PREDICATES.items() if level > 0]
VARIABLES = ["x", "y", "z"]
#: ints and strings, so ``<`` meets mixed types
VALUES = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b"]))
#: constants in bodies and goals may also match nothing
CONSTANTS = st.one_of(VALUES, st.just("nowhere"))
OPERATORS = {ComparisonOp.EQ: operator.eq, ComparisonOp.LT: operator.lt}


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def _value(term, env):
    if isinstance(term, Variable):
        return env.get(term.name, _value)  # _value marks "unbound"
    return term.value


def _match(atom, values, env) -> Optional[Dict[str, Any]]:
    if len(values) != len(atom.args):
        return None
    env = dict(env)
    for arg, value in zip(atom.args, values):
        if isinstance(arg, Variable) and arg.name not in env:
            env[arg.name] = value
        elif _value(arg, env) != value:
            return None
    return env


def _finish(literals, env, facts) -> Optional[Dict[str, Any]]:
    """Apply comparisons, skolems and negations to one binding, each as
    soon as it is evaluable; None when one fails."""
    pending = list(literals)
    while pending:
        for literal in pending:
            atom = literal.atom
            if isinstance(atom, Comparison):
                left, right = _value(atom.left, env), _value(atom.right, env)
                if left is not _value and right is not _value:
                    try:
                        holds = bool(OPERATORS[atom.op](left, right))
                    except TypeError:
                        holds = False
                    if holds != literal.positive:
                        return None
                elif literal.positive and atom.op is ComparisonOp.EQ and (
                    left is not _value or right is not _value
                ):
                    free = atom.left if left is _value else atom.right
                    env = {**env, free.name: right if left is _value else left}
                else:
                    continue
            elif isinstance(atom, Skolem):
                args = [_value(arg, env) for arg in atom.args]
                if any(arg is _value for arg in args):
                    continue
                token = ("sk", atom.tag, *args)
                result = _value(atom.result, env)
                if result is _value:
                    env = {**env, atom.result.name: token}
                elif result != token:
                    return None
            else:
                args = tuple(_value(arg, env) for arg in atom.args)
                if any(arg is _value for arg in args):
                    continue
                if args in facts.get(atom.predicate, ()):
                    return None
            pending.remove(literal)
            break
        else:
            raise AssertionError(f"unsafe body in the oracle: {pending}")
    return env


def naive_solve(body, facts) -> List[Dict[str, Any]]:
    """Every binding satisfying *body* over flat *facts*, by nested loops."""
    envs: List[Dict[str, Any]] = [{}]
    for literal in body:
        if literal.positive and isinstance(literal.atom, Atom):
            envs = [
                extended
                for current in envs
                for values in facts.get(literal.atom.predicate, ())
                for extended in [_match(literal.atom, values, current)]
                if extended is not None
            ]
    rest = [lit for lit in body if not (lit.positive and isinstance(lit.atom, Atom))]
    solved = [_finish(rest, current, facts) for current in envs]
    return [current for current in solved if current is not None]


def naive_evaluate(program, facts) -> Dict[str, Set[tuple]]:
    """Level by level, every rule on the full facts until nothing is new."""
    facts = {name: set(values) for name, values in facts.items()}
    for level in sorted({PREDICATES[rule.head.predicate][1] for rule in program}):
        rules = [rule for rule in program if PREDICATES[rule.head.predicate][1] == level]
        changed = True
        while changed:
            changed = False
            for rule in rules:
                for env in naive_solve(rule.body, facts):
                    head = tuple(_value(arg, env) for arg in rule.head.args)
                    held = facts.setdefault(rule.head.predicate, set())
                    if head not in held:
                        held.add(head)
                        changed = True
    return facts


# ----------------------------------------------------------------------
# random programs and stores
# ----------------------------------------------------------------------
def _atom(draw, names):
    name = draw(st.sampled_from(names))
    arity = draw(st.sampled_from(PREDICATES[name][0]))
    args = [
        draw(st.one_of(st.sampled_from(VARIABLES).map(lambda v: "?" + v), CONSTANTS))
        for _ in range(arity)
    ]
    return Atom.of(name, *args)


@st.composite
def rules(draw, head_name):
    """One safe rule for *head_name*: positive atoms up to its level
    (recursion included), negation and comparisons on bound variables."""
    (arity,), level = PREDICATES[head_name]
    usable = [name for name, (_, lvl) in PREDICATES.items() if lvl <= level]
    lower = [name for name, (_, lvl) in PREDICATES.items() if lvl < level]
    body: List[Literal] = []
    bound: Set[str] = set()
    for _ in range(draw(st.integers(1, 3))):
        atom = _atom(draw, usable)
        bound.update(v.name for v in atom.variables())
        body.append(Literal(atom))
    if not bound:
        return None
    variables = sorted(bound)
    comparison = draw(st.sampled_from(["none", "bind", "bound", "less"]))
    if comparison == "bind":  # binds the fresh ?w, from either side
        value = draw(st.one_of(st.sampled_from(variables).map(lambda v: "?" + v), CONSTANTS))
        sides = ["?w", value] if draw(st.booleans()) else [value, "?w"]
        body.append(Literal(Comparison.of(sides[0], "=", sides[1])))
        variables.append("w")
    elif comparison == "bound":  # an equality test between bound terms
        left = draw(st.sampled_from(variables))
        right = draw(st.one_of(st.sampled_from(variables).map(lambda v: "?" + v), CONSTANTS))
        body.append(Literal(Comparison.of(f"?{left}", "=", right)))
    elif comparison == "less":
        left = draw(st.sampled_from(variables))
        right = draw(st.one_of(st.sampled_from(variables).map(lambda v: "?" + v), CONSTANTS))
        sides = [f"?{left}", right] if draw(st.booleans()) else [right, f"?{left}"]
        body.append(Literal(Comparison.of(sides[0], "<", sides[1]), draw(st.booleans())))
    if draw(st.booleans()):
        name = draw(st.sampled_from(lower))
        width = draw(st.sampled_from(PREDICATES[name][0]))
        args = [f"?{draw(st.sampled_from(variables))}" for _ in range(width)]
        body.append(negated(Atom.of(name, *args)))
    head_args = [f"?{draw(st.sampled_from(variables))}" for _ in range(arity)]
    if draw(st.booleans()):  # a skolem head: a virtual object per binding
        keys = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=2))
        body.append(
            Literal(Skolem(Variable("s"), head_name, tuple(Variable(k) for k in keys)))
        )
        head_args[0] = "?s"
    body = draw(st.permutations(body))  # builtins may come before their bindings
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
def base_facts(draw):
    facts: Dict[str, Set[tuple]] = {}
    for name in BASE:
        arities = PREDICATES[name][0]
        facts[name] = draw(
            st.sets(
                st.sampled_from(arities).flatmap(lambda n: st.tuples(*[VALUES] * n)),
                max_size=8,
            )
        )
    return facts


@st.composite
def layered(draw, facts):
    """*facts* split over two or three sibling parent layers (a fact may
    sit in two of them) and the writable own layer."""
    parents = [FactStore() for _ in range(draw(st.integers(2, 3)))]
    own = []
    for name, tuples in sorted(facts.items()):
        for values in sorted(tuples, key=repr):
            homes = draw(st.sets(st.integers(0, len(parents)), min_size=1, max_size=2))
            for home in homes:
                if home == len(parents):
                    own.append((name, values))
                else:
                    parents[home].add(name, values)
    store = FactStore(*parents)
    for name, values in own:
        store.add(name, values)
    return store


@st.composite
def goals(draw):
    return [_atom(draw, list(PREDICATES)) for _ in range(draw(st.integers(1, 3)))]


def answer_set(answers) -> Set[tuple]:
    return {tuple(sorted(answer.items())) for answer in answers}


def naive_answers(goal_list, facts) -> Set[tuple]:
    names = {v.name for goal in goal_list for v in goal.variables()}
    return answer_set(
        {name: env[name] for name in names}
        for env in naive_solve([Literal(goal) for goal in goal_list], facts)
    )


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(st.data(), programs(), base_facts())
def test_evaluate_derives_the_naive_fixpoint(data, program, facts):
    store = data.draw(layered(facts))
    derived = evaluate(program, store)
    expected = naive_evaluate(program, facts)
    for name in PREDICATES:
        assert derived.facts(name) == expected.get(name, set()), name


@settings(max_examples=200, deadline=None)
@given(st.data(), programs(), base_facts(), goals())
def test_goal_conjunctions_answer_like_the_naive_join(data, program, facts, goal_list):
    store = data.draw(layered(facts))
    answers = QueryEngine([], evaluate(program, store)).ask(*goal_list)
    assert len(answers) == len(answer_set(answers))  # no answer twice
    assert answer_set(answers) == naive_answers(goal_list, naive_evaluate(program, facts))


def test_an_unsafe_body_is_refused():
    body = [Literal(Atom.of("e", "?x", "?y")), negated(Atom.of("f", "?z"))]
    with pytest.raises(EvaluationError, match="unsafe rule slipped through"):
        compile_body(body)


def test_the_plan_cache_keeps_one_plan_per_shape():
    """2,000 queries of one template with distinct constants compile one
    plan; the recursive program behind them three (two rule bodies, and
    the recursive one again with its delta literal)."""
    store = FactStore()
    for number in range(50):
        store.add("e", (number, number + 1))
    program = [
        DatalogRule(Atom.of("tc", "?x", "?y"), (Literal(Atom.of("e", "?x", "?y")),)),
        DatalogRule(
            Atom.of("tc", "?x", "?z"),
            (Literal(Atom.of("tc", "?x", "?y")), Literal(Atom.of("e", "?y", "?z"))),
        ),
    ]
    _plan.cache_clear()
    engine = QueryEngine([], evaluate(program, store))
    for number in range(2000):
        answers = engine.ask(Atom.of("tc", number, "?y"), Atom.of("e", "?y", "?z"))
        assert len(answers) == max(0, 49 - number)
    assert _plan.cache_info().currsize == 4


# ----------------------------------------------------------------------
# star joins: the atoms of one O-term
# ----------------------------------------------------------------------
#: the objects: §3 OIDs, and a plain value (records key any first value)
OBJECTS = [OID("agent", "sys", "db", "person", number) for number in range(3)] + ["o9"]
#: O-term predicates and their arities; ``att$c$m`` holds two
OTERM = {"inst$c": (1,), "att$c$a": (2,), "att$c$b": (2,), "att$c$m": (2, 3)}
#: rules deriving ``inst$d`` / ``att$d$b`` into the writable layer; the
#: second body is itself a star over ``x``
STAR_RULES = [
    DatalogRule(
        Atom.of("inst$d", "?x"),
        (Literal(Atom.of("att$c$a", "?x", 1)), Literal(Atom.of("inst$c", "?x"))),
    ),
    DatalogRule(
        Atom.of("att$d$b", "?x", "?v"),
        (
            Literal(Atom.of("inst$c", "?x")),
            Literal(Atom.of("att$c$b", "?x", "?v")),
            Literal(Atom.of("att$c$a", "?x", "?w")),
        ),
    ),
]
#: what a star member may read, with its arity
MEMBERS = [
    ("inst$c", 1), ("att$c$a", 2), ("att$c$b", 2), ("att$c$m", 2), ("att$c$m", 3),
    ("inst$d", 1), ("att$d$b", 2),
]
SMALL = st.one_of(st.integers(0, 2), st.sampled_from(["a", "b"]))


@st.composite
def oterm_facts(draw):
    """Per object, an ``inst$c`` fact or not, and zero (absent), one or
    several (multi-valued) facts per attribute."""
    facts: Dict[str, Set[tuple]] = {name: set() for name in OTERM}
    for obj in OBJECTS:
        if draw(st.integers(0, 3)):
            facts["inst$c"].add((obj,))
        for name in ("att$c$a", "att$c$b"):
            for value in draw(st.sets(SMALL, max_size=2)):
                facts[name].add((obj, value))
        tails = st.sampled_from((1, 2)).flatmap(lambda n: st.tuples(*[SMALL] * n))
        for values in draw(st.sets(tails, max_size=2)):
            facts["att$c$m"].add((obj, *values))
    return facts


@st.composite
def star_goals(draw):
    """An atom binding ``?o``, then two to four atoms probing it, which
    form one star; a member with a constant checks it per fact."""
    anchor = draw(
        st.sampled_from(
            [Atom.of("inst$c", "?o"), Atom.of("att$c$a", "?o", 1), Atom.of("inst$d", "?o")]
        )
    )
    goal_list = [anchor]
    for number in range(draw(st.integers(2, 4))):
        name, arity = draw(st.sampled_from(MEMBERS))
        args = ["?o"] + [f"?v{number}_{position}" for position in range(1, arity)]
        if arity > 1 and draw(st.integers(0, 5)) == 0:
            args[-1] = draw(SMALL)
        goal_list.append(Atom.of(name, *args))
    return goal_list


def with_derived(facts) -> Dict[str, Set[tuple]]:
    """*facts* plus what :data:`STAR_RULES` derive from them (they read
    only ``inst$c`` / ``att$c$*``, so one pass is the fixpoint)."""
    result = {name: set(values) for name, values in facts.items()}
    for rule in STAR_RULES:
        for env in naive_solve(rule.body, facts):
            head = tuple(_value(arg, env) for arg in rule.head.args)
            result.setdefault(rule.head.predicate, set()).add(head)
    return result


def test_an_o_term_selection_compiles_into_one_star():
    """``person(level=3) -> ssn, name``: the level probe binds ``o``, then
    one star step reads the object's three other facts."""
    goal_list = [
        Atom.of("inst$person", "?o"),
        Atom.of("att$person$level", "?o", 3),
        Atom.of("att$person$ssn", "?o", "?out0"),
        Atom.of("att$person$name", "?o", "?out1"),
    ]
    plan, _ = compile_body([Literal(goal) for goal in goal_list])
    assert [type(step) for step in plan.steps] == [_Join, _Star]
    assert [join.predicate for join in plan.steps[1].joins] == [
        "inst$person", "att$person$ssn", "att$person$name",
    ]


def test_a_first_argument_probe_reads_records_not_an_index():
    """A lone atom bound at position 0, with a check, is a star of one:
    it reads the records, so no position-0 index is ever built."""
    store = FactStore()
    for number in range(4):
        store.add("inst$c", (f"o{number}",))
        store.add("att$c$a", (f"o{number}", number % 2))
    goal_list = [Atom.of("att$c$a", "?o", 1), Atom.of("att$c$a", "?o", "?o")]
    plan, _ = compile_body([Literal(goal) for goal in goal_list])
    assert [type(step) for step in plan.steps] == [_Join, _Star]
    assert QueryEngine([], store).ask(*goal_list) == []
    answers = QueryEngine([], store).ask(Atom.of("att$c$a", "?o", 1), Atom.of("inst$c", "?o"))
    assert sorted(answer["o"] for answer in answers) == ["o1", "o3"]
    assert store._records is not None
    assert all(position > 0 for _, position in store._index)


@settings(max_examples=200, deadline=None)
@given(st.data(), oterm_facts(), star_goals())
def test_star_joins_answer_like_the_naive_join(data, facts, goal_list):
    store = data.draw(layered(facts))
    derived = evaluate(STAR_RULES, store)  # inst$d, att$d$b: the writable layer
    expected = with_derived(facts)
    answers = QueryEngine([], derived).ask(*goal_list)
    assert len(answers) == len(answer_set(answers))  # no answer twice
    assert answer_set(answers) == naive_answers(goal_list, expected)
    # facts added after the records were built are seen by the next star
    for name, tuples in sorted(data.draw(oterm_facts()).items()):
        for values in sorted(tuples, key=repr):
            derived.add(name, values)
            expected.setdefault(name, set()).add(values)
    answers = QueryEngine([], derived).ask(*goal_list)
    assert answer_set(answers) == naive_answers(goal_list, expected)


@settings(max_examples=100, deadline=None)
@given(st.lists(oterm_facts(), min_size=2, max_size=3), star_goals())
def test_appendix_b_star_joins_answer_like_the_naive_join(schemas, goal_list):
    """Appendix B fills each table on its first probe, after a rule's
    star may already have built the records; the star must see it."""
    union: Dict[str, Set[tuple]] = {}
    for facts in schemas:
        for name, tuples in facts.items():
            union.setdefault(name, set()).update(tuples)
    labelled = LabelledProgram(
        STAR_RULES,
        [source_from_facts(f"S{index}", facts) for index, facts in enumerate(schemas)],
    )
    if not all(labelled.known_predicate(goal.predicate) for goal in goal_list):
        with pytest.raises(EvaluationError, match="unknown predicate"):
            labelled.ask(*goal_list)
        return
    answers = labelled.ask(*goal_list)
    assert answer_set(answers) == naive_answers(goal_list, with_derived(union))
