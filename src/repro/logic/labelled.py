"""Appendix B: evaluating virtual rules with schema-labelled predicates.

The paper labels each head predicate ``q`` with the set ``S`` of schema
names that contain ``q`` as a (base) concept, and each body predicate
``p`` with the set ``R`` of rules having ``p`` as head; evaluation then
recursively unions local answers and rule-derived answers::

    Algorithm evaluation(q, Q)
        for each rule q^{S} <- p1^{R1}, ..., pn^{Rn} in Q do
            temp   := ∪_{s ∈ S} results of evaluating q against s
            temp_i := evaluation(p_i, R_i)          (recursive call)
            temp'  := temp_1 ⋈ ... ⋈ temp_n
            result := temp ∪ temp'

This module implements that algorithm faithfully as
:class:`LabelledProgram.evaluation` — a top-down evaluator whose only
interaction with component databases is *fetching the extension of one
concept*, which is precisely the autonomy argument of the paper: no
reasoning is pushed down to local systems.

Local schemas plug in through the tiny :class:`SchemaSource` protocol
(``fetch(predicate) -> set of value tuples``), so both in-memory stores
and the federation agents of :mod:`repro.federation` can serve as
sources.  As the paper notes, the algorithm is "just a naive version";
it does not support recursive virtual rules — those raise
:class:`~repro.errors.EvaluationError` pointing at the bottom-up engine,
which handles recursion via semi-naive iteration.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import EvaluationError
from .atoms import Atom, Comparison, ComparisonOp, Literal, Skolem
from .engine import FactStore, FactTuple
from .rules import DatalogRule
from .substitution import EMPTY, Substitution
from .terms import Constant, Variable


class SchemaSource:
    """A component schema that can enumerate one concept's extension.

    The default implementation wraps a :class:`FactStore`; federation
    agents provide their own subclass that answers from live local
    databases (and counts the accesses, for autonomy tests).
    """

    def __init__(self, name: str, store: Optional[FactStore] = None) -> None:
        self.name = name
        self._store = store if store is not None else FactStore()
        self.fetch_count = 0

    def fetch(self, predicate: str) -> Set[FactTuple]:
        """All ground tuples of *predicate* available in this schema."""
        self.fetch_count += 1
        return set(self._store.facts(predicate))

    def concepts(self) -> Tuple[str, ...]:
        """Predicates this schema exposes as base concepts."""
        return self._store.predicates()


class LabelledProgram:
    """Rules plus the head/body labelling of Appendix B.

    Parameters
    ----------
    rules:
        Flat datalog rules over *concept-level* predicates (``parent``,
        ``uncle``...).  Head labels are derived from *sources*: predicate
        ``q`` is labelled with every source exposing ``q``.
    sources:
        The component schemas, in registration order.
    """

    def __init__(
        self, rules: Iterable[DatalogRule], sources: Sequence[SchemaSource]
    ) -> None:
        self._rules_by_head: Dict[str, List[DatalogRule]] = defaultdict(list)
        for rule in rules:
            self._rules_by_head[rule.head.predicate].append(rule)
        self._sources = list(sources)
        self._concept_map: Dict[str, List[SchemaSource]] = defaultdict(list)
        for source in self._sources:
            for predicate in source.concepts():
                self._concept_map[predicate].append(source)
        self._fresh = 0

    # ------------------------------------------------------------------
    def head_label(self, predicate: str) -> FrozenSet[str]:
        """The schema-name set ``S`` labelling head predicate *predicate*."""
        return frozenset(s.name for s in self._concept_map.get(predicate, ()))

    def body_label(self, predicate: str) -> Tuple[DatalogRule, ...]:
        """The rule set ``R`` labelling body predicate *predicate*."""
        return tuple(self._rules_by_head.get(predicate, ()))

    def known_predicate(self, predicate: str) -> bool:
        return predicate in self._concept_map or predicate in self._rules_by_head

    # ------------------------------------------------------------------
    def evaluation(self, goal: Atom) -> List[Dict[str, Any]]:
        """Appendix B's ``evaluation(q, Q)`` for the (possibly non-ground)
        *goal*; answers are bindings of the goal's variables.

        Constants in the goal act as selections ("the constants appearing
        in the query ... can be used to optimize"); here they filter after
        recursive evaluation, keeping the algorithm as the paper states it.
        """
        if not self.known_predicate(goal.predicate):
            raise EvaluationError(
                f"unknown predicate {goal.predicate!r}: not a concept of any "
                f"registered schema and no rule derives it"
            )
        # Per-query memo of evaluated predicates — the algorithm's
        # ``temp`` tables; recursion through joins would otherwise
        # recompute each predicate once per outer tuple.  A lazy
        # per-argument index over each memoized table keeps joins from
        # degenerating into nested scans.
        self._memo: Dict[Tuple[str, int], Set[FactTuple]] = {}
        self._memo_index: Dict[Tuple[str, int], Dict[Tuple[int, Any], Set[FactTuple]]] = {}
        tuples = self._eval_predicate(goal.predicate, goal.arity, stack=())
        answers: List[Dict[str, Any]] = []
        seen: Set[Tuple[Tuple[str, Any], ...]] = set()
        for values in sorted(tuples, key=repr):
            substitution = _match_values(goal, values)
            if substitution is None:
                continue
            binding = {
                variable.name: substitution.apply(variable).value  # type: ignore[union-attr]
                for variable in goal.variables()
            }
            key = tuple(sorted(binding.items(), key=lambda kv: kv[0]))
            if key not in seen:
                seen.add(key)
                answers.append(binding)
        return answers

    # ------------------------------------------------------------------
    def _eval_predicate(
        self, predicate: str, arity: int, stack: Tuple[str, ...]
    ) -> Set[FactTuple]:
        memo = getattr(self, "_memo", None)
        if memo is not None and (predicate, arity) in memo:
            return memo[(predicate, arity)]
        if predicate in stack:
            raise EvaluationError(
                f"recursive virtual rule through {predicate!r}: the Appendix B "
                f"evaluator is non-recursive; use the bottom-up engine "
                f"(repro.logic.engine.evaluate) instead"
            )
        stack = stack + (predicate,)

        # temp := ∪_{s ∈ S} results of evaluating q against s
        result: Set[FactTuple] = set()
        for source in self._concept_map.get(predicate, ()):
            for values in source.fetch(predicate):
                if len(values) == arity:
                    result.add(values)

        # temp' per rule: join of recursively evaluated body predicates
        for rule in self._rules_by_head.get(predicate, ()):
            if len(rule.head.args) != arity:
                continue
            self._fresh += 1
            renamed = rule.rename_apart(f"r{self._fresh}")
            for substitution in self._solve(list(renamed.body), EMPTY, stack):
                head = renamed.head.substitute(substitution)
                if not head.is_ground():
                    raise EvaluationError(
                        f"rule {rule} derived non-ground head {head}"
                    )
                result.add(tuple(c.value for c in head.args))  # type: ignore[union-attr]
        if memo is not None:
            memo[(predicate, arity)] = result
        return result

    def _candidates(
        self,
        atom: Atom,
        substitution: Substitution,
        stack: Tuple[str, ...],
    ) -> Set[FactTuple]:
        """Indexed candidate tuples for *atom* under current bindings."""
        tuples = self._eval_predicate(atom.predicate, atom.arity, stack)
        bound = [
            (position, resolved.value)
            for position, arg in enumerate(atom.args)
            if isinstance((resolved := substitution.apply(arg)), Constant)
        ]
        if not bound:
            return tuples
        key = (atom.predicate, atom.arity)
        index = getattr(self, "_memo_index", {}).get(key)
        if index is None:
            index = {}
            for values in tuples:
                for position, value in enumerate(values):
                    index.setdefault((position, value), set()).add(values)
            if hasattr(self, "_memo_index"):
                self._memo_index[key] = index
        best: Optional[Set[FactTuple]] = None
        for position, value in bound:
            bucket = index.get((position, value), set())
            if best is None or len(bucket) < len(best):
                best = bucket
        return best if best is not None else tuples

    def _solve(
        self,
        pending: List[Literal],
        substitution: Substitution,
        stack: Tuple[str, ...],
    ) -> Iterable[Substitution]:
        if not pending:
            yield substitution
            return
        # Evaluate cheap (non-join) literals first; remember the most
        # selective positive atom for the join step.
        best_position = -1
        best_candidates: Optional[Set[FactTuple]] = None
        for position, literal in enumerate(pending):
            atom = literal.atom
            rest = pending[:position] + pending[position + 1:]
            if literal.positive and isinstance(atom, Atom):
                candidates = self._candidates(atom, substitution, stack)
                if best_candidates is None or len(candidates) < len(best_candidates):
                    best_position = position
                    best_candidates = candidates
                continue
            if isinstance(atom, Comparison):
                resolved = atom.substitute(substitution)
                if (
                    literal.positive
                    and resolved.op is ComparisonOp.EQ
                    and isinstance(resolved.left, Variable) != isinstance(resolved.right, Variable)
                ):
                    variable = (
                        resolved.left if isinstance(resolved.left, Variable) else resolved.right
                    )
                    constant = (
                        resolved.right if isinstance(resolved.left, Variable) else resolved.left
                    )
                    extended = substitution.bind(variable, constant)
                    if extended is not None:
                        yield from self._solve(rest, extended, stack)
                    return
                if resolved.is_ground():
                    if resolved.holds() == literal.positive:
                        yield from self._solve(rest, substitution, stack)
                    return
                continue
            if isinstance(atom, Skolem):
                resolved_skolem = atom.substitute(substitution)
                if all(isinstance(a, Constant) for a in resolved_skolem.args):
                    token = Constant(resolved_skolem.token())
                    target = substitution.apply(resolved_skolem.result)
                    if isinstance(target, Constant):
                        if target == token:
                            yield from self._solve(rest, substitution, stack)
                        return
                    extended = substitution.bind(target, token)
                    if extended is not None:
                        yield from self._solve(rest, extended, stack)
                    return
                continue
            if not literal.positive and isinstance(atom, Atom):
                resolved_atom = atom.substitute(substitution)
                if resolved_atom.is_ground():
                    tuples = self._eval_predicate(atom.predicate, atom.arity, stack)
                    values = tuple(c.value for c in resolved_atom.args)  # type: ignore[union-attr]
                    if values not in tuples:
                        yield from self._solve(rest, substitution, stack)
                    return
                continue
        if best_candidates is None:
            raise EvaluationError(
                "body cannot be scheduled (unsafe rule?): "
                + ", ".join(str(literal) for literal in pending)
            )
        chosen = pending[best_position]
        atom = chosen.atom
        assert isinstance(atom, Atom)
        rest = pending[:best_position] + pending[best_position + 1:]
        for values in best_candidates:
            extended = _match_values(atom, values, substitution)
            if extended is not None:
                yield from self._solve(rest, extended, stack)


def _match_values(
    pattern: Atom, values: FactTuple, substitution: Substitution = EMPTY
) -> Optional[Substitution]:
    if len(values) != pattern.arity:
        return None
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


def source_from_facts(
    name: str, facts: Mapping[str, Iterable[FactTuple]]
) -> SchemaSource:
    """Build a :class:`SchemaSource` from ``{predicate: tuples}`` data."""
    store = FactStore()
    for predicate, tuples in facts.items():
        for values in tuples:
            store.add(predicate, tuple(values))
    return SchemaSource(name, store)
