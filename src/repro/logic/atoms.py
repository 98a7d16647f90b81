"""Atoms and literals: normal predicates and comparison predicates (§2, §5).

The paper's rule bodies mix O-terms with "normal predicates of the
first-order logic" — e.g. ``y2 = car-name1`` in Example 10, or the
``parent•Pssn# ∈ brother•brothers`` value correspondences once compiled.
This module provides:

* :class:`Atom` — ``p(t1, ..., tn)`` over ordinary predicate symbols,
* :class:`Comparison` — built-in atoms for the paper's operator set
  ``{=, ≠, <, ≤, >, ≥}`` plus set membership ``∈`` (which the value
  correspondences of §4.1 need),
* :class:`Literal` — an atom or comparison with a sign, supporting the
  negated body predicates of Principles 3 and 4.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
from typing import Any, Callable, FrozenSet, Iterable, Tuple, Union

from ..errors import LogicError
from .reverse_substitution import ReverseSubstitution
from .substitution import Substitution
from .terms import Constant, Term, Variable, make_term


@dataclasses.dataclass(frozen=True)
class Atom:
    """An ordinary predicate atom ``predicate(args...)``."""

    predicate: str
    args: Tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.predicate:
            raise LogicError("predicate name must be non-empty")
        for arg in self.args:
            if not isinstance(arg, (Variable, Constant)):
                raise LogicError(f"atom argument must be a term, got {arg!r}")

    @classmethod
    def of(cls, predicate: str, *args: Any) -> "Atom":
        """Build with automatic term lifting (``"?x"`` becomes a variable)."""
        return cls(predicate, tuple(make_term(a) for a in args))

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> FrozenSet[Variable]:
        return frozenset(a for a in self.args if isinstance(a, Variable))

    def is_ground(self) -> bool:
        return all(isinstance(a, Constant) for a in self.args)

    def substitute(self, substitution: Substitution) -> "Atom":
        return Atom(self.predicate, substitution.apply_all(self.args))

    def apply_reverse(self, reverse: ReverseSubstitution) -> "Atom":
        return Atom(self.predicate, reverse.apply_terms(self.args))

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(map(str, self.args))})"


class ComparisonOp(enum.Enum):
    """Built-in comparison operators (τ of §4.1 plus membership)."""

    EQ = "="
    NE = "≠"
    LT = "<"
    LE = "≤"
    GT = ">"
    GE = "≥"
    IN = "∈"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    def test(self, left: Any, right: Any) -> bool:
        """``left self right`` over plain values; incomparable values
        (e.g. ``str < int``) simply fail the test rather than crashing
        rule evaluation."""
        evaluate: Callable[[Any, Any], bool] = _EVALUATORS[self]
        try:
            return bool(evaluate(left, right))
        except TypeError:
            return False


_EVALUATORS: dict = {
    ComparisonOp.EQ: operator.eq,
    ComparisonOp.NE: operator.ne,
    ComparisonOp.LT: operator.lt,
    ComparisonOp.LE: operator.le,
    ComparisonOp.GT: operator.gt,
    ComparisonOp.GE: operator.ge,
    ComparisonOp.IN: lambda left, right: _membership(left, right),
}


def _membership(left: Any, right: Any) -> bool:
    if isinstance(right, (set, frozenset, list, tuple)):
        return left in right
    # Scalar right-hand side degrades to equality, which lets ``∈`` be
    # used uniformly even when a source models a set as a single value.
    return left == right


@dataclasses.dataclass(frozen=True)
class Comparison:
    """A built-in atom ``left τ right``; evaluable once ground."""

    op: ComparisonOp
    left: Term
    right: Term

    @classmethod
    def of(cls, left: Any, op: Union[str, ComparisonOp], right: Any) -> "Comparison":
        if isinstance(op, str):
            aliases = {"==": "=", "!=": "≠", "<=": "≤", ">=": "≥", "in": "∈"}
            op = ComparisonOp(aliases.get(op, op))
        return cls(op, make_term(left), make_term(right))

    def variables(self) -> FrozenSet[Variable]:
        return frozenset(t for t in (self.left, self.right) if isinstance(t, Variable))

    def is_ground(self) -> bool:
        return isinstance(self.left, Constant) and isinstance(self.right, Constant)

    def substitute(self, substitution: Substitution) -> "Comparison":
        return Comparison(
            self.op, substitution.apply(self.left), substitution.apply(self.right)
        )

    def apply_reverse(self, reverse: ReverseSubstitution) -> "Comparison":
        return Comparison(
            self.op, reverse.replace(self.left), reverse.replace(self.right)
        )

    def holds(self) -> bool:
        """Evaluate; raises :class:`LogicError` when not ground."""
        if not self.is_ground():
            raise LogicError(f"cannot evaluate non-ground comparison {self}")
        return self.op.test(self.left.value, self.right.value)  # type: ignore[union-attr]

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclasses.dataclass(frozen=True)
class Skolem:
    """A computed atom binding *result* to a deterministic token.

    Derivation rules (Principle 5) often have a *virtual* head object —
    the ``o1`` of the uncle rule exists in no local database.  At
    evaluation time such objects need identities; a ``Skolem`` literal
    binds ``result := ("sk", tag, v1, ..., vn)`` once its *args* are
    ground, giving each distinct argument combination one stable virtual
    OID.  :meth:`repro.logic.rules.Rule.compile` inserts these
    automatically; they never appear in surface rules.
    """

    result: Term
    tag: str
    args: Tuple[Term, ...]

    def variables(self) -> FrozenSet[Variable]:
        collected = {t for t in self.args if isinstance(t, Variable)}
        if isinstance(self.result, Variable):
            collected.add(self.result)
        return frozenset(collected)

    def is_ground(self) -> bool:
        return isinstance(self.result, Constant) and all(
            isinstance(a, Constant) for a in self.args
        )

    def substitute(self, substitution: Substitution) -> "Skolem":
        return Skolem(
            substitution.apply(self.result),
            self.tag,
            substitution.apply_all(self.args),
        )

    def apply_reverse(self, reverse: ReverseSubstitution) -> "Skolem":
        return Skolem(
            reverse.replace(self.result), self.tag, reverse.apply_terms(self.args)
        )

    def token(self) -> Tuple[Any, ...]:
        """The value bound to *result*; args must be ground."""
        if not all(isinstance(a, Constant) for a in self.args):
            raise LogicError(f"skolem args not ground in {self}")
        return ("sk", self.tag) + tuple(a.value for a in self.args)  # type: ignore[union-attr]

    def __str__(self) -> str:
        inside = ", ".join(map(str, self.args))
        return f"{self.result} := sk[{self.tag}]({inside})"


BodyAtom = Union[Atom, Comparison, Skolem]


@dataclasses.dataclass(frozen=True)
class Literal:
    """A signed body element: an atom/comparison, possibly negated."""

    atom: BodyAtom
    positive: bool = True

    def variables(self) -> FrozenSet[Variable]:
        return self.atom.variables()

    def substitute(self, substitution: Substitution) -> "Literal":
        return Literal(self.atom.substitute(substitution), self.positive)

    def apply_reverse(self, reverse: ReverseSubstitution) -> "Literal":
        return Literal(self.atom.apply_reverse(reverse), self.positive)

    @property
    def is_comparison(self) -> bool:
        return isinstance(self.atom, Comparison)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"¬{self.atom}"


def negated(atom: BodyAtom) -> Literal:
    """Shorthand for a negative literal."""
    return Literal(atom, positive=False)


def lits(atoms: Iterable[BodyAtom]) -> Tuple[Literal, ...]:
    """Wrap plain atoms as positive literals."""
    return tuple(a if isinstance(a, Literal) else Literal(a) for a in atoms)
