"""Derivation rules over O-terms and normal predicates (§2, §5).

A rule is an implicitly universally quantified statement::

    γ1 & γ2 ... & γi ⇐ τ1 & τ2 ... & τk

where heads and body elements are O-terms or normal predicates (§2).
:class:`Rule` keeps that surface form — the form the integration
principles construct and the examples print — and compiles to plain
datalog rules (:class:`DatalogRule`) for the evaluation engine:
conjunctive heads split into one datalog rule per head atom, and O-terms
flatten via :meth:`~repro.logic.oterms.OTerm.compile`.
"""

from __future__ import annotations

import dataclasses
from typing import FrozenSet, Iterable, List, Sequence, Tuple, Union

from ..errors import LogicError
from .atoms import Atom, Comparison, Literal, Skolem
from .oterms import OTerm, TypingOTerm
from .reverse_substitution import ReverseSubstitution
from .substitution import Substitution
from .terms import Variable

HeadElement = Union[OTerm, TypingOTerm, Atom]
BodyElement = Union[OTerm, TypingOTerm, Atom, Comparison]


@dataclasses.dataclass(frozen=True)
class BodyItem:
    """A body element with a sign (¬ supported per Principles 3-4)."""

    element: BodyElement
    positive: bool = True

    def variables(self) -> FrozenSet[Variable]:
        return _variables_of(self.element)

    def __str__(self) -> str:
        text = str(self.element)
        return text if self.positive else f"¬{text}"


def _variables_of(element: Union[HeadElement, BodyElement]) -> FrozenSet[Variable]:
    if isinstance(element, (OTerm, Atom, Comparison)):
        return element.variables()
    if isinstance(element, TypingOTerm):
        return frozenset(
            part for part in (element.subclass, element.superclass)
            if isinstance(part, Variable)
        )
    raise LogicError(f"not a rule element: {element!r}")  # pragma: no cover


@dataclasses.dataclass(frozen=True)
class Rule:
    """A surface-form derivation rule ``heads ⇐ body``."""

    heads: Tuple[HeadElement, ...]
    body: Tuple[BodyItem, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.heads:
            raise LogicError("a rule needs at least one head element")
        for head in self.heads:
            if isinstance(head, Comparison):
                raise LogicError("comparisons may not appear in rule heads")

    @classmethod
    def of(
        cls,
        heads: Union[HeadElement, Sequence[HeadElement]],
        body: Iterable[Union[BodyElement, BodyItem]] = (),
        name: str = "",
    ) -> "Rule":
        """Build from single or multiple heads and a mixed body iterable."""
        if isinstance(heads, (OTerm, TypingOTerm, Atom, Comparison)):
            head_tuple: Tuple[HeadElement, ...] = (heads,)  # type: ignore[assignment]
        else:
            head_tuple = tuple(heads)
        body_items = tuple(
            item if isinstance(item, BodyItem) else BodyItem(item) for item in body
        )
        return cls(head_tuple, body_items, name)

    # ------------------------------------------------------------------
    def variables(self) -> FrozenSet[Variable]:
        collected = set()
        for head in self.heads:
            collected |= _variables_of(head)
        for item in self.body:
            collected |= item.variables()
        return frozenset(collected)

    def is_fact(self) -> bool:
        return not self.body

    def apply_reverse(self, reverse: ReverseSubstitution) -> "Rule":
        """Definition 5.2 lifted over the whole rule."""
        def transform(element: BodyElement) -> BodyElement:
            if isinstance(element, (OTerm, Atom, Comparison)):
                return element.apply_reverse(reverse)
            return element  # TypingOTerm carries no value terms

        new_heads = tuple(transform(head) for head in self.heads)  # type: ignore[arg-type]
        new_body = tuple(
            BodyItem(transform(item.element), item.positive) for item in self.body
        )
        return Rule(new_heads, new_body, self.name)

    # ------------------------------------------------------------------
    # compilation to datalog
    # ------------------------------------------------------------------
    def compile(self) -> List["DatalogRule"]:
        """One datalog rule per flattened head atom.

        A head O-term with bindings produces its membership atom *and*
        one attribute atom per binding, each defined by the same body —
        deriving a virtual object means deriving its membership and its
        attribute values.
        """
        body_literals: List[Literal] = []
        for item in self.body:
            element = item.element
            if isinstance(element, OTerm):
                if item.positive:
                    body_literals.extend(Literal(a) for a in element.compile())
                else:
                    body_literals.extend(element.compile_negated())
            elif isinstance(element, TypingOTerm):
                body_literals.append(Literal(element.compile(), item.positive))
            elif isinstance(element, (Atom, Comparison)):
                body_literals.append(Literal(element, item.positive))
            else:  # pragma: no cover - defensive
                raise LogicError(f"unsupported body element {element!r}")

        body_variables = set()
        for literal in body_literals:
            body_variables |= literal.variables()

        compiled: List[DatalogRule] = []
        for head in self.heads:
            extra: List[Literal] = []
            if isinstance(head, OTerm):
                head_atoms = head.compile()
                # Skolemize a virtual head object: an object variable
                # absent from the body names a derived object that exists
                # in no local database (e.g. the uncle rule's o1); bind it
                # to a deterministic token of the head's value variables.
                obj = head.object_term
                if isinstance(obj, Variable) and obj not in body_variables:
                    args = tuple(
                        sorted(
                            (
                                term
                                for _, term in head.bindings
                                if isinstance(term, Variable)
                            ),
                            key=lambda v: v.name,
                        )
                    )
                    extra.append(
                        Literal(Skolem(obj, str(head.class_name), args))
                    )
            elif isinstance(head, TypingOTerm):
                head_atoms = [head.compile()]
            else:
                head_atoms = [head]
            for head_atom in head_atoms:
                compiled.append(
                    DatalogRule(
                        head_atom, tuple(body_literals) + tuple(extra), self.name
                    )
                )
        return compiled

    def __str__(self) -> str:
        head_text = " & ".join(str(head) for head in self.heads)
        if not self.body:
            return f"{head_text}."
        body_text = ", ".join(str(item) for item in self.body)
        return f"{head_text} ⇐ {body_text}"


@dataclasses.dataclass(frozen=True)
class DatalogRule:
    """A flat rule ``head ⇐ literals`` ready for the engine."""

    head: Atom
    body: Tuple[Literal, ...]
    name: str = ""

    def variables(self) -> FrozenSet[Variable]:
        collected = set(self.head.variables())
        for literal in self.body:
            collected |= literal.variables()
        return frozenset(collected)

    def substitute(self, substitution: Substitution) -> "DatalogRule":
        return DatalogRule(
            self.head.substitute(substitution),
            tuple(literal.substitute(substitution) for literal in self.body),
            self.name,
        )

    def positive_body(self) -> Tuple[Literal, ...]:
        return tuple(
            lit for lit in self.body if lit.positive and isinstance(lit.atom, Atom)
        )

    def negative_body(self) -> Tuple[Literal, ...]:
        return tuple(lit for lit in self.body if not lit.positive)

    def comparisons(self) -> Tuple[Literal, ...]:
        return tuple(lit for lit in self.body if lit.is_comparison)

    def skolems(self) -> Tuple[Literal, ...]:
        return tuple(lit for lit in self.body if isinstance(lit.atom, Skolem))

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} ⇐ {', '.join(str(lit) for lit in self.body)}"


def compile_rules(rules: Iterable[Union[Rule, DatalogRule]]) -> List[DatalogRule]:
    """Flatten a collection of surface rules for the engine; rules that
    are already flat pass through as they are."""
    compiled: List[DatalogRule] = []
    for rule in rules:
        if isinstance(rule, DatalogRule):
            compiled.append(rule)
        else:
            compiled.extend(rule.compile())
    return compiled
