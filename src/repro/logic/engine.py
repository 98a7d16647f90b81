"""Bottom-up evaluation of virtual rules: a stratified datalog engine.

The paper equips the integrated schema with derivation rules (Principles
3-5) and evaluates them "at an abstract level" without touching local
autonomy (Appendix B).  This module is the production evaluation path: a
semi-naive, stratified bottom-up engine over ground facts.

* Facts live in a :class:`FactStore` — per-predicate sets of value
  tuples.  :func:`facts_from_database` compiles an
  :class:`~repro.model.database.ObjectDatabase` into ``inst$C`` /
  ``att$C$a`` / ``is_a`` facts (one ``att`` fact per element of a
  multivalued value, which turns the paper's ``∈`` correspondences into
  plain joins).
* Programs are collections of :class:`~repro.logic.rules.DatalogRule`;
  negation is handled by stratification (rules with ``¬`` on a predicate
  evaluate in a later stratum), matching the paper's reliance on ref [8]
  for well-defined rule sets.
* :func:`evaluate` materializes all derivable facts; :class:`QueryEngine`
  wraps it with conjunctive queries like ``?- uncle('John', y)``.

:func:`_solve_body` is the package's only conjunctive join.  Rule bodies
in :func:`evaluate`, query goals in :meth:`QueryEngine.ask`, and the rule
bodies and goals of the faithful *top-down* algorithm of Appendix B
(:mod:`repro.logic.labelled`, which hands it per-call tables) all run
through it.  A Hypothesis suite checks that the two evaluators answer
random stratified programs alike (``tests/logic/test_evaluator_parity.py``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import EvaluationError
from .atoms import Atom, Comparison, ComparisonOp, Literal, Skolem
from .oterms import TypingOTerm, att_predicate, inst_predicate
from .rules import DatalogRule, Rule, compile_rules
from .substitution import EMPTY, Substitution
from .terms import Constant, Term, Variable

FactTuple = Tuple[Any, ...]
#: one index bucket: the only fact with that value, or a set of them
Bucket = Union[FactTuple, Set[FactTuple]]


def _insert(index: Dict[Any, Bucket], value: Any, values: FactTuple) -> None:
    bucket = index.get(value)
    if bucket is None:
        index[value] = values
    elif isinstance(bucket, set):
        bucket.add(values)
    else:
        index[value] = {bucket, values}


class FactStore:
    """Ground facts grouped by predicate name, optionally layered.

    A store owns one writable layer and may sit over read-only *parent*
    stores: reads see the union of every layer, writes go to the own
    layer, and a fact a parent already holds is not added again.
    :func:`evaluate` layers derived facts over its base this way instead
    of copying it, and the federation composes a query's lifted facts
    from cached per-granule slices.  Parents must not be written while
    a store is layered over them.

    Each layer indexes a ``(predicate, position)`` lazily, in one pass,
    on the first :meth:`facts_at` / :meth:`candidates` probe that needs
    it (compiled O-term predicates are probed by ``oid`` once the object
    variable is bound).  A bucket holding one fact is kept as the bare
    fact tuple and wrapped in a set when returned.  An index is
    published by a single assignment, so threads probing one shared
    read-only store may race to build it and still agree.
    """

    def __init__(self, *parents: "FactStore") -> None:
        self._facts: Dict[str, Set[FactTuple]] = {}
        self._index: Dict[Tuple[str, int], Dict[Any, Bucket]] = {}
        #: every parent layer, flattened (parents of parents included)
        self._parents: Tuple["FactStore", ...] = tuple(
            dict.fromkeys(
                layer for parent in parents for layer in (parent, *parent._parents)
            )
        )
        #: predicate -> the parent layers holding it (parents never change)
        self._holding: Dict[str, Tuple["FactStore", ...]] = {}
        #: predicate -> (own facts when merged, union over the layers)
        self._merged: Dict[str, Tuple[int, Set[FactTuple]]] = {}

    def _holders(self, predicate: str) -> Tuple["FactStore", ...]:
        """The layers holding *predicate*: parents first, then this one."""
        own = (self,) if predicate in self._facts else ()
        if not self._parents:
            return own
        holding = self._holding.get(predicate)
        if holding is None:
            holding = tuple(p for p in self._parents if predicate in p._facts)
            self._holding[predicate] = holding
        return holding + own

    def _build_index(self, predicate: str, position: int) -> Dict[Any, Bucket]:
        """Index this layer's *predicate* facts at *position*, in one pass,
        and publish the index by a single assignment."""
        index: Dict[Any, Bucket] = {}
        for values in self._facts.get(predicate, ()):
            if position < len(values):
                _insert(index, values[position], values)
        self._index[(predicate, position)] = index
        return index

    def add(self, predicate: str, values: FactTuple) -> bool:
        """Add a fact to the own layer; True when no layer held it."""
        for parent in self._parents:
            if values in parent._facts.get(predicate, ()):
                return False
        bucket = self._facts.get(predicate)
        if bucket is None:
            bucket = self._facts[predicate] = set()
        elif values in bucket:
            return False
        bucket.add(values)
        if self._index:
            for position, value in enumerate(values):
                index = self._index.get((predicate, position))
                if index is not None:
                    _insert(index, value, values)
        return True

    def facts_at(self, predicate: str, position: int, value: Any) -> Set[FactTuple]:
        """Facts of *predicate* whose argument *position* equals *value*."""
        found: Optional[Bucket] = None
        merged: Optional[Set[FactTuple]] = None
        for layer in self._holders(predicate):
            index = layer._index.get((predicate, position))
            if index is None:
                index = layer._build_index(predicate, position)
            bucket = index.get(value)
            if bucket is None:
                continue
            if found is None:
                found = bucket
                continue
            if merged is None:  # a second layer matches: union a copy
                merged = set(found) if isinstance(found, set) else {found}
            if isinstance(bucket, set):
                merged |= bucket
            else:
                merged.add(bucket)
        if merged is not None:
            return merged
        if found is None:
            return set()
        return found if isinstance(found, set) else {found}

    def candidates(self, predicate: str, bound: "List[Tuple[int, Any]]") -> Set[FactTuple]:
        """The smallest indexed candidate set consistent with *bound*.

        *bound* lists (position, value) pairs known ground; the tightest
        single-position bucket is returned (remaining positions are
        checked by the caller's match).  Falls back to the full set.
        """
        best: Optional[Set[FactTuple]] = None
        for position, value in bound:
            bucket = self.facts_at(predicate, position, value)
            if not bucket:
                return bucket
            if best is None or len(bucket) < len(best):
                best = bucket
        return best if best is not None else self.facts(predicate)

    def add_atom(self, atom: Atom) -> bool:
        if not atom.is_ground():
            raise EvaluationError(f"cannot store non-ground atom {atom}")
        return self.add(atom.predicate, tuple(c.value for c in atom.args))  # type: ignore[union-attr]

    def facts(self, predicate: str) -> Set[FactTuple]:
        holders = self._holders(predicate)
        if len(holders) == 1:
            return holders[0]._facts[predicate]
        if not holders:
            return set()
        # only the own layer grows, so its size dates the cached union
        own = len(self._facts.get(predicate, ()))
        merged = self._merged.get(predicate)
        if merged is None or merged[0] != own:
            merged = (own, set().union(*(h._facts[predicate] for h in holders)))
            self._merged[predicate] = merged
        return merged[1]

    def contains(self, predicate: str, values: FactTuple) -> bool:
        return any(
            values in layer._facts.get(predicate, ())
            for layer in (self, *self._parents)
        )

    def predicates(self) -> Tuple[str, ...]:
        return tuple(
            dict.fromkeys(
                predicate
                for layer in (*self._parents, self)
                for predicate in layer._facts
            )
        )

    def merge(self, other: "FactStore") -> None:
        for predicate, values in other:
            self.add(predicate, values)

    def copy(self) -> "FactStore":
        """A flat, writable store holding every fact of every layer."""
        clone = FactStore()
        for predicate in self.predicates():
            clone._facts[predicate] = set(self.facts(predicate))
        return clone

    def __len__(self) -> int:
        return sum(len(self.facts(predicate)) for predicate in self.predicates())

    def __iter__(self) -> Iterator[Tuple[str, FactTuple]]:
        for predicate in self.predicates():
            for values in self.facts(predicate):
                yield predicate, values


def iter_value_elements(descriptor: str, value: Any) -> Iterator[Tuple[str, Any]]:
    """Yield ``(flattened descriptor, scalar)`` pairs for one value.

    Scalars yield themselves; frozensets yield one pair per element;
    nested records (dicts — the §2 complex-attribute values) flatten to
    dotted descriptors (``author.name``), matching the Definition 4.1
    path descriptors O-terms use.  ``None`` elements are dropped.
    """
    if value is None:
        return
    if isinstance(value, frozenset):
        for element in value:
            yield from iter_value_elements(descriptor, element)
    elif isinstance(value, dict):
        for key, nested in value.items():
            yield from iter_value_elements(f"{descriptor}.{key}", nested)
    else:
        yield descriptor, value


def facts_from_database(database: "object") -> FactStore:
    """Compile an object database into a :class:`FactStore`.

    Emits, per instance of class ``C`` (direct extent):

    * ``inst$A(oid)`` for ``C`` and every ancestor ``A`` (extension
      semantics of typing O-terms);
    * ``att$C$a(oid, v)`` per attribute/aggregation value element;
    * ``is_a(child, parent)`` per declared link.

    Attribute facts are emitted for the *declaring* class and inherited
    upward as well, so a rule over a superclass O-term sees subclass
    objects — matching ``{<o:C>} ⊆ {<o':C'>}``.
    """
    store = FactStore()
    schema = database.schema  # type: ignore[attr-defined]
    for child, parent in schema.is_a_links():
        store.add(TypingOTerm.PREDICATE, (child, parent))
    for class_name in schema.class_names:
        lineage = [class_name] + sorted(schema.ancestors(class_name))
        for instance in database.direct_extent(class_name):  # type: ignore[attr-defined]
            oid = instance.oid
            for owner in lineage:
                store.add(inst_predicate(owner), (oid,))
            members: Dict[str, Any] = {}
            members.update(instance.attributes)
            members.update(instance.aggregations)
            for name, value in members.items():
                if value is None:
                    continue
                flattened = list(iter_value_elements(name, value))
                for owner in lineage:
                    owner_class = schema.effective_class(owner)
                    if owner == class_name or owner_class.has_member(name):
                        for descriptor, element in flattened:
                            store.add(att_predicate(owner, descriptor), (oid, element))
    return store


# ----------------------------------------------------------------------
# stratification
# ----------------------------------------------------------------------
def stratify(rules: Sequence[DatalogRule]) -> List[List[DatalogRule]]:
    """Partition *rules* into strata safe for negation.

    Uses the classic numbering relaxation: ``stratum(head) ≥
    stratum(positive body)`` and ``stratum(head) ≥ stratum(negative body)
    + 1``.  Raises :class:`EvaluationError` when no stratification exists
    (negation through recursion).
    """
    predicates = {rule.head.predicate for rule in rules}
    stratum: Dict[str, int] = {predicate: 0 for predicate in predicates}
    limit = len(predicates) + 1
    changed = True
    while changed:
        changed = False
        for rule in rules:
            head = rule.head.predicate
            for literal in rule.body:
                atom = literal.atom
                if not isinstance(atom, Atom):
                    continue  # comparisons and skolems don't constrain strata
                if atom.predicate not in stratum:
                    continue  # base predicate, stratum 0
                required = stratum[atom.predicate] + (0 if literal.positive else 1)
                if stratum[head] < required:
                    stratum[head] = required
                    changed = True
                    if stratum[head] > limit:
                        raise EvaluationError(
                            "program is not stratifiable: negation through "
                            f"recursion involving {head!r}"
                        )
    layers: Dict[int, List[DatalogRule]] = defaultdict(list)
    for rule in rules:
        layers[stratum[rule.head.predicate]].append(rule)
    return [layers[index] for index in sorted(layers)]


# ----------------------------------------------------------------------
# body matching
# ----------------------------------------------------------------------
def _match_pattern(
    pattern: Atom, values: FactTuple, substitution: Substitution
) -> Optional[Substitution]:
    current = substitution
    for arg, value in zip(pattern.args, values):
        resolved = current.apply(arg)
        if isinstance(resolved, Constant):
            if resolved.value != value:
                return None
        else:
            extended = current.bind(resolved, Constant(value))
            if extended is None:
                return None
            current = extended
    return current


def _ground_value(term: Term, substitution: Substitution) -> Tuple[bool, Any]:
    resolved = substitution.apply(term)
    if isinstance(resolved, Constant):
        return True, resolved.value
    return False, None


def _solve_body(
    body: Sequence[Literal],
    store: FactStore,
    substitution: Substitution,
    delta: Optional[FactStore] = None,
    delta_literal: Optional[Literal] = None,
) -> Iterator[Substitution]:
    """Yield substitutions satisfying *body* (order-optimized join).

    Cheap literals (ground comparisons, defining equalities, skolems and
    ground negations) are evaluated as soon as they become evaluable;
    among positive atoms the one with the smallest indexed candidate set
    is joined next.  When *delta_literal* is set (semi-naive), that
    specific literal reads the delta store instead of the full one.
    """
    pending: List[Literal] = list(body)
    if not pending:
        yield substitution
        return

    # Phase 1: an evaluable non-join literal costs nothing — do it now.
    for position, literal in enumerate(pending):
        atom = literal.atom
        if isinstance(atom, Comparison):
            ok_left, left = _ground_value(atom.left, substitution)
            ok_right, right = _ground_value(atom.right, substitution)
            if literal.positive and atom.op is ComparisonOp.EQ and ok_left != ok_right:
                rest = pending[:position] + pending[position + 1:]
                unbound = atom.right if ok_left else atom.left
                bound_value = left if ok_left else right
                resolved = substitution.apply(unbound)
                assert isinstance(resolved, Variable)
                extended = substitution.bind(resolved, Constant(bound_value))
                if extended is not None:
                    yield from _solve_body(rest, store, extended, delta, delta_literal)
                return
            if ok_left and ok_right:
                rest = pending[:position] + pending[position + 1:]
                grounded = Comparison(atom.op, Constant(left), Constant(right))
                if grounded.holds() == literal.positive:
                    yield from _solve_body(
                        rest, store, substitution, delta, delta_literal
                    )
                return
            continue
        if isinstance(atom, Skolem):
            arg_values = []
            evaluable = True
            for arg in atom.args:
                ok, value = _ground_value(arg, substitution)
                if not ok:
                    evaluable = False
                    break
                arg_values.append(value)
            if not evaluable:
                continue
            rest = pending[:position] + pending[position + 1:]
            token = ("sk", atom.tag) + tuple(arg_values)
            resolved = substitution.apply(atom.result)
            if isinstance(resolved, Constant):
                if resolved.value == token:
                    yield from _solve_body(
                        rest, store, substitution, delta, delta_literal
                    )
                return
            extended = substitution.bind(resolved, Constant(token))
            if extended is not None:
                yield from _solve_body(rest, store, extended, delta, delta_literal)
            return
        if not literal.positive and isinstance(atom, Atom):
            ground = []
            evaluable = True
            for arg in atom.args:
                ok, value = _ground_value(arg, substitution)
                if not ok:
                    evaluable = False
                    break
                ground.append(value)
            if not evaluable:
                continue
            rest = pending[:position] + pending[position + 1:]
            if not store.contains(atom.predicate, tuple(ground)):
                yield from _solve_body(rest, store, substitution, delta, delta_literal)
            return

    # Phase 2: join the most selective positive atom.
    best_position = -1
    best_candidates: Optional[Set[FactTuple]] = None
    for position, literal in enumerate(pending):
        atom = literal.atom
        if not (literal.positive and isinstance(atom, Atom)):
            continue
        source = delta if literal is delta_literal else store
        assert source is not None
        bound: List[Tuple[int, Any]] = []
        for argument_position, arg in enumerate(atom.args):
            resolved = substitution.apply(arg)
            if isinstance(resolved, Constant):
                bound.append((argument_position, resolved.value))
        candidates = source.candidates(atom.predicate, bound)
        if best_candidates is None or len(candidates) < len(best_candidates):
            best_position = position
            best_candidates = candidates
            if not candidates:
                break
    if best_candidates is None:
        raise EvaluationError(
            "body cannot be evaluated — unsafe rule slipped through: "
            + ", ".join(str(literal) for literal in body)
        )
    literal = pending[best_position]
    atom = literal.atom
    assert isinstance(atom, Atom)
    rest = pending[:best_position] + pending[best_position + 1:]
    for values in best_candidates:
        if len(values) != atom.arity:
            continue
        extended = _match_pattern(atom, values, substitution)
        if extended is not None:
            yield from _solve_body(rest, store, extended, delta, delta_literal)


def _derive(
    rule: DatalogRule,
    store: FactStore,
    delta: Optional[FactStore],
    delta_literal: Optional[Literal],
) -> List[Atom]:
    derived: List[Atom] = []
    for substitution in _solve_body(rule.body, store, EMPTY, delta, delta_literal):
        head = rule.head.substitute(substitution)
        if not head.is_ground():
            raise EvaluationError(f"derived non-ground head {head} from {rule}")
        derived.append(head)
    return derived


def evaluate(
    rules: Iterable[DatalogRule], base: FactStore, max_iterations: int = 100_000
) -> FactStore:
    """Materialize all consequences of *rules* over *base* facts.

    Semi-naive iteration within each stratum: after the first round only
    rule instantiations touching the previous round's new facts fire.
    Derived facts go into a writable layer over the read-only *base*
    (see :class:`FactStore`), which is returned; *base* itself is never
    written, and a program without rules returns it unchanged.
    """
    program = list(rules)
    if not program:
        return base
    store = FactStore(base)
    for layer in stratify(program):
        # Round 0: full evaluation of the layer.
        delta = FactStore()
        for rule in layer:
            for atom in _derive(rule, store, None, None):
                values = tuple(c.value for c in atom.args)  # type: ignore[union-attr]
                if store.add(atom.predicate, values):
                    delta.add(atom.predicate, values)
        iterations = 0
        while len(delta):
            iterations += 1
            if iterations > max_iterations:
                raise EvaluationError("evaluation did not converge")
            new_delta = FactStore()
            delta_predicates = set(delta.predicates())
            for rule in layer:
                for literal in rule.body:
                    if not (literal.positive and isinstance(literal.atom, Atom)):
                        continue
                    if literal.atom.predicate not in delta_predicates:
                        continue  # this literal cannot touch new facts
                    for atom in _derive(rule, store, delta, literal):
                        values = tuple(c.value for c in atom.args)  # type: ignore[union-attr]
                        if store.add(atom.predicate, values):
                            new_delta.add(atom.predicate, values)
            delta = new_delta
    return store


class QueryEngine:
    """Conjunctive queries over a rule program and base facts.

    >>> engine = QueryEngine(rules, store)
    >>> engine.ask(Atom.of("uncle", "John", "?y"))
    [{'y': 'Bill'}]

    Materialization happens once, lazily, and is reused across queries.
    """

    def __init__(self, rules: Iterable[Rule], base: FactStore) -> None:
        self._rules = compile_rules(rules)
        self._base = base
        self._materialized: Optional[FactStore] = None

    @property
    def materialized(self) -> FactStore:
        if self._materialized is None:
            self._materialized = evaluate(self._rules, self._base)
        return self._materialized

    def invalidate(self) -> None:
        """Drop the materialization (call after base facts change)."""
        self._materialized = None

    def ask(self, *goals: Atom) -> List[Dict[str, Any]]:
        """Answers to the conjunction of *goals* as variable bindings."""
        literals = [Literal(goal) for goal in goals]
        answers: List[Dict[str, Any]] = []
        seen: Set[Tuple[Tuple[str, Any], ...]] = set()
        variables: List[Variable] = []
        for goal in goals:
            for variable in goal.args:
                if isinstance(variable, Variable) and variable not in variables:
                    variables.append(variable)
        for substitution in _solve_body(literals, self.materialized, EMPTY):
            binding = {}
            for variable in variables:
                resolved = substitution.apply(variable)
                binding[variable.name] = (
                    resolved.value if isinstance(resolved, Constant) else None
                )
            key = tuple(sorted(binding.items(), key=lambda kv: kv[0]))
            if key not in seen:
                seen.add(key)
                answers.append(binding)
        return answers

    def holds(self, goal: Atom) -> bool:
        """True when the ground *goal* is derivable."""
        if not goal.is_ground():
            raise EvaluationError(f"holds() needs a ground goal, got {goal}")
        values = tuple(c.value for c in goal.args)  # type: ignore[union-attr]
        return self.materialized.contains(goal.predicate, values)
