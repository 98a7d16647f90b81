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

This module implements that algorithm as :meth:`LabelledProgram.ask`
(``evaluation`` is its one-goal form) — a top-down evaluator whose only
interaction with component databases is *fetching the extension of one
concept*, which is precisely the autonomy argument of the paper: no
reasoning is pushed down to local systems.

Each call gets its own ``temp`` tables: a predicate's table is evaluated
on its first probe and then served from a :class:`FactStore`, so a
concept is fetched at most once per schema per query however many
goals and rule bodies read it.  The joins ``temp_1 ⋈ ... ⋈ temp_n`` and
the query's goal conjunction run as the bottom-up engine's compiled join
plans (:func:`~repro.logic.engine.compile_body`); this module has no
join of its own.

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
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import EvaluationError
from .atoms import Atom
from .engine import FactStore, FactTuple, Goal, _derive
from .rules import DatalogRule


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
    def ask(self, *goals: Union[Atom, Goal]) -> List[Dict[str, Any]]:
        """Answers to the conjunction of *goals* as bindings of their
        variables (or to one compiled :class:`~repro.logic.engine.Goal`
        under its columns), sorted by the ``repr`` of the bound values so
        the order does not depend on hashing.

        Every goal and rule body reads one per-call set of ``temp``
        tables (:class:`_Tables`), so each concept is fetched from each
        of its schemas at most once per call.  Constants in the goals act
        as selections ("the constants appearing in the query ... can be
        used to optimize"); they filter after a predicate is fully
        evaluated, keeping the algorithm as the paper states it.
        """
        goal = Goal.of(goals)
        for predicate in goal.predicates:
            if not self.known_predicate(predicate):
                raise EvaluationError(
                    f"unknown predicate {predicate!r}: not a concept of any "
                    f"registered schema and no rule derives it"
                )
        tables = _Tables(self)
        # fill every goal's table up front: the join may stop at an empty
        # table before probing the rest, and a recursive rule behind one
        # of them must still be refused
        for predicate in goal.predicates:
            tables.evaluate(predicate)
        columns = goal.columns
        return [
            dict(zip(columns, values))
            for values in sorted(goal.values(tables), key=repr)
        ]

    def evaluation(self, goal: Atom) -> List[Dict[str, Any]]:
        """Appendix B's ``evaluation(q, Q)`` for the (possibly non-ground)
        *goal*: :meth:`ask` with a single goal."""
        return self.ask(goal)


class _Tables(FactStore):
    """The ``temp`` tables of one :meth:`LabelledProgram.ask` call.

    A predicate's table is evaluated on its first probe — the union of
    its schemas' extensions and of its rules' joins — and then served
    from this store, so the engine's join plans read rule bodies and query
    goals alike: every read of a predicate starts at :meth:`holders`.
    """

    def __init__(self, program: LabelledProgram) -> None:
        super().__init__()
        self._program = program
        self._evaluated: Set[str] = set()
        self._stack: List[str] = []

    def evaluate(self, predicate: str) -> None:
        if predicate in self._evaluated:
            return
        if predicate in self._stack:
            raise EvaluationError(
                f"recursive virtual rule through {predicate!r}: the Appendix B "
                f"evaluator is non-recursive; use the bottom-up engine "
                f"(repro.logic.engine.evaluate) instead"
            )
        self._stack.append(predicate)
        # temp := ∪_{s ∈ S} results of evaluating q against s
        for source in self._program._concept_map.get(predicate, ()):
            for values in source.fetch(predicate):
                self.add(predicate, values)
        for rule in self._program.body_label(predicate):
            # temp_i := evaluation(p_i, R_i), then temp' := temp_1 ⋈ ... ⋈ temp_n
            for literal in rule.body:
                if isinstance(literal.atom, Atom):
                    self.evaluate(literal.atom.predicate)
            for values in _derive(rule, self):
                self.add(predicate, values)
        self._stack.pop()
        self._evaluated.add(predicate)

    def holders(self, predicate: str) -> Tuple[FactStore, ...]:
        self.evaluate(predicate)
        return super().holders(predicate)


def source_from_facts(
    name: str, facts: Mapping[str, Iterable[FactTuple]]
) -> SchemaSource:
    """Build a :class:`SchemaSource` from ``{predicate: tuples}`` data."""
    store = FactStore()
    for predicate, tuples in facts.items():
        for values in tuples:
            store.add(predicate, tuple(values))
    return SchemaSource(name, store)
