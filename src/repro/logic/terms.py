"""First-order terms: variables and constants (§2, §5).

The paper's rules are "simply clauses of the first-order logic" over
O-terms and normal predicates, with variables allowed not only for
attribute values but also for object identifiers, class names, attribute
names and aggregation-function names (§2).  Both kinds of occurrence are
ordinary :class:`Variable` terms here; *where* a variable occurs (value
position vs. name position) is decided by the containing O-term.

Constants wrap arbitrary hashable Python values so OIDs, strings,
numbers and dates all flow through the same machinery.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Union

from ..errors import LogicError
from ..model.oids import OID


@dataclasses.dataclass(frozen=True)
class Variable:
    """A logical variable, identified by name."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise LogicError("variable name must be non-empty")

    def __str__(self) -> str:
        return self.name


@dataclasses.dataclass(frozen=True)
class Constant:
    """A ground term wrapping a hashable Python value."""

    value: Any

    def __post_init__(self) -> None:
        try:
            hash(self.value)
        except TypeError:
            raise LogicError(
                f"constants must wrap hashable values, got {self.value!r}"
            ) from None

    def __str__(self) -> str:
        # an OID subclasses str but prints in its dotted form
        if isinstance(self.value, str) and not isinstance(self.value, OID):
            return repr(self.value)
        return str(self.value)


Term = Union[Variable, Constant]


def make_term(value: Any) -> Term:
    """Lift *value* into a term.

    Existing terms pass through; strings beginning with ``?`` become
    variables (the query-syntax convention used across the library);
    everything else becomes a constant.
    """
    if isinstance(value, (Variable, Constant)):
        return value
    if isinstance(value, str) and value.startswith("?") and len(value) > 1:
        return Variable(value[1:])
    return Constant(value)


def is_ground(term: Term) -> bool:
    """True when *term* contains no variable (terms are flat here)."""
    return isinstance(term, Constant)


class VariableFactory:
    """Produces fresh, collision-free variables.

    The derivation principle (Principle 5) marks each connected subgraph
    of an assertion graph with a *different* variable x1, x2, ...; this
    factory supplies them and guarantees freshness across one integration
    run.
    """

    def __init__(self, prefix: str = "x") -> None:
        self._prefix = prefix
        self._counter = itertools.count(1)

    def fresh(self) -> Variable:
        """The next unused variable (x1, x2, ...)."""
        return Variable(f"{self._prefix}{next(self._counter)}")

    def fresh_named(self, hint: str) -> Variable:
        """A fresh variable whose name embeds *hint* for readability."""
        return Variable(f"{hint}_{next(self._counter)}")
