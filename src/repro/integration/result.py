"""The integrated schema — output of the integration process (§5, §6).

An :class:`IntegratedSchema` holds everything the six principles
produce:

* **integrated classes** with provenance (which local classes an
  integrated class stands for — the ``IS(...)`` mapping);
* **integrated attributes** whose *value-set specifications* record how
  ``value_set(IS_ab)`` derives from local value sets (union, difference,
  intersection, concatenation, AIF application) — these are the
  extensional side of Principle 1/3 and evaluate lazily against live
  databases through a :class:`ValueContext`;
* **is-a links** (Principle 2/6) and **aggregation links** with resolved
  cardinality constraints (Principle 6);
* **derivation rules** (Principles 3, 4, 5) — evaluable rules feed the
  engines; inherently disjunctive rules (Principle 4's generalized form)
  are kept as documentation with ``evaluable=False``;
* the ``re``-mapping and AIF registry of Principle 3, and a build log.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from ..errors import IntegrationError, UnknownClassError
from ..logic.rules import Rule
from ..model.aggregations import Cardinality
from ..model.schema import Schema
from .aif import AIFRegistry, ReMapping
from .concatenation import concatenation
from .naming import NamePolicy

LocalAttr = Tuple[str, str, str]  # (schema, class, attribute)
Concept = Tuple[str, str]  # (schema, class)


class ValueContext:
    """What value-set evaluation needs from the federation.

    ``value_set`` returns the current non-null value set of a local
    attribute; ``paired_values`` returns ``(x, y)`` pairs for objects the
    data mappings identify as the same real-world entity (the ``oi1 =
    oi2`` side condition of Principle 1/3).  The federation layer
    implements this against live agents; tests implement it with dicts.
    """

    def value_set(self, schema: str, class_name: str, attribute: str) -> Set[Any]:
        raise NotImplementedError

    def paired_values(self, left: LocalAttr, right: LocalAttr) -> List[Tuple[Any, Any]]:
        raise NotImplementedError


class ValueSetOp(enum.Enum):
    """How an integrated attribute's value set derives from local ones."""

    LOCAL = "local"  # value_set(a)
    UNION = "union"  # value_set(a) ∪ value_set(b)
    DIFFERENCE = "difference"  # value_set(a) / value_set(b)
    INTERSECTION = "intersection"  # value_set(a) ∩ value_set(b)
    CONCATENATION = "concatenation"  # cancatenation(A·a, B·b), paired
    AIF = "aif"  # AIF(x, y) over paired values


@dataclasses.dataclass(frozen=True)
class ValueSetSpec:
    """A lazy definition of ``value_set(IS_attr)``."""

    op: ValueSetOp
    left: LocalAttr
    right: Optional[LocalAttr] = None
    aif_attribute: Optional[str] = None  # key into the AIF registry
    separator: str = " "

    def evaluate(self, context: ValueContext, aifs: AIFRegistry) -> Set[Any]:
        """Compute the value set against live data."""
        left_values = context.value_set(*self.left)
        if self.op is ValueSetOp.LOCAL:
            return left_values
        if self.right is None:
            raise IntegrationError(f"{self.op} spec needs a right side")
        if self.op is ValueSetOp.UNION:
            return left_values | context.value_set(*self.right)
        if self.op is ValueSetOp.DIFFERENCE:
            return left_values - context.value_set(*self.right)
        if self.op is ValueSetOp.INTERSECTION:
            return left_values & context.value_set(*self.right)
        pairs = context.paired_values(self.left, self.right)
        if self.op is ValueSetOp.CONCATENATION:
            return {
                value
                for x, y in pairs
                if (value := concatenation(x, y, self.separator)) is not None
            }
        if self.op is ValueSetOp.AIF:
            aif = aifs.resolve(self.aif_attribute or "")
            return {value for x, y in pairs if (value := aif(x, y)) is not None}
        raise IntegrationError(f"unhandled value-set op {self.op}")  # pragma: no cover

    def describe(self) -> str:
        def attr(local: LocalAttr) -> str:
            return ".".join(local)

        if self.op is ValueSetOp.LOCAL:
            return f"value_set({attr(self.left)})"
        assert self.right is not None
        symbol = {
            ValueSetOp.UNION: "∪",
            ValueSetOp.DIFFERENCE: "/",
            ValueSetOp.INTERSECTION: "∩",
        }.get(self.op)
        if symbol:
            return f"value_set({attr(self.left)}) {symbol} value_set({attr(self.right)})"
        if self.op is ValueSetOp.CONCATENATION:
            return f"cancatenation({attr(self.left)}, {attr(self.right)})"
        return f"AIF_{self.aif_attribute}({attr(self.left)}, {attr(self.right)})"


@dataclasses.dataclass
class IntegratedAttribute:
    """An attribute of an integrated class, with provenance and value spec."""

    name: str
    spec: ValueSetSpec
    origins: Tuple[LocalAttr, ...]
    note: str = ""

    def __str__(self) -> str:
        return f"{self.name} := {self.spec.describe()}"


@dataclasses.dataclass
class IntegratedAggregation:
    """An aggregation function of an integrated class."""

    name: str
    range_class: str  # integrated class name
    cardinality: Cardinality
    origins: Tuple[LocalAttr, ...]

    def __str__(self) -> str:
        return f"{self.name}: {self.range_class} with {self.cardinality}"


@dataclasses.dataclass
class IntegratedClass:
    """A class of the integrated schema.

    ``virtual`` classes (Principle 3/5 products like ``IS_AB``) have no
    direct extent: their membership is defined by rules.
    """

    name: str
    origins: Tuple[Concept, ...] = ()
    virtual: bool = False
    attributes: Dict[str, IntegratedAttribute] = dataclasses.field(default_factory=dict)
    aggregations: Dict[str, IntegratedAggregation] = dataclasses.field(default_factory=dict)

    def add_attribute(self, attribute: IntegratedAttribute) -> IntegratedAttribute:
        if attribute.name in self.attributes or attribute.name in self.aggregations:
            raise IntegrationError(
                f"integrated class {self.name!r} already has member "
                f"{attribute.name!r}"
            )
        self.attributes[attribute.name] = attribute
        return attribute

    def add_aggregation(self, aggregation: IntegratedAggregation) -> IntegratedAggregation:
        if (
            aggregation.name in self.attributes
            or aggregation.name in self.aggregations
        ):
            raise IntegrationError(
                f"integrated class {self.name!r} already has member "
                f"{aggregation.name!r}"
            )
        self.aggregations[aggregation.name] = aggregation
        return aggregation

    def describe(self) -> str:
        flags = " (virtual)" if self.virtual else ""
        origin_text = ", ".join(f"{s}.{c}" for s, c in self.origins) or "—"
        lines = [f"class {self.name}{flags}  [from {origin_text}]"]
        for attribute in self.attributes.values():
            lines.append(f"  {attribute}")
        for aggregation in self.aggregations.values():
            lines.append(f"  {aggregation}")
        return "\n".join(lines)


@dataclasses.dataclass
class IntegratedRule:
    """A rule of the integrated schema, with evaluability flag."""

    rule: Rule
    principle: str
    evaluable: bool = True

    def __str__(self) -> str:
        marker = "" if self.evaluable else "  (disjunctive, documentation only)"
        return f"{self.rule}{marker}"


class IntegratedSchema:
    """The global schema under construction / as produced."""

    def __init__(self, name: str, policy: Optional[NamePolicy] = None) -> None:
        self.name = name
        self.policy = policy or NamePolicy()
        self.classes: Dict[str, IntegratedClass] = {}
        self._is_map: Dict[Concept, str] = {}
        self._is_a: Set[Tuple[str, str]] = set()
        self.rules: List[IntegratedRule] = []
        self.re_mapping = ReMapping()
        self.aifs = AIFRegistry()
        self.log: List[str] = []
        #: the evaluable and inheritance rules compiled for evaluation,
        #: set on first use (``repro.federation.evaluation.integration_rules``)
        #: and dropped whenever a rule or an is-a link changes
        self.compiled_rules: Optional[Tuple[Any, ...]] = None

    # ------------------------------------------------------------------
    # classes and the IS(...) map
    # ------------------------------------------------------------------
    def add_class(self, integrated: IntegratedClass) -> IntegratedClass:
        if integrated.name in self.classes:
            raise IntegrationError(
                f"integrated schema already has class {integrated.name!r}"
            )
        self.classes[integrated.name] = integrated
        for origin in integrated.origins:
            self._is_map[origin] = integrated.name
        return integrated

    def map_origin(self, schema: str, class_name: str, integrated_name: str) -> None:
        """Record ``IS(schema.class) = integrated_name`` for an extra origin."""
        if integrated_name not in self.classes:
            raise UnknownClassError(integrated_name, self.name)
        self._is_map[(schema, class_name)] = integrated_name
        existing = self.classes[integrated_name]
        if (schema, class_name) not in existing.origins:
            existing.origins = existing.origins + ((schema, class_name),)

    def is_name(self, schema: str, class_name: str) -> Optional[str]:
        """``IS(schema.class)`` — the integrated name, or None if unplaced."""
        return self._is_map.get((schema, class_name))

    def require_is(self, schema: str, class_name: str) -> str:
        name = self.is_name(schema, class_name)
        if name is None:
            raise IntegrationError(
                f"IS({schema}.{class_name}) is not defined yet"
            )
        return name

    def cls(self, name: str) -> IntegratedClass:
        try:
            return self.classes[name]
        except KeyError:
            raise UnknownClassError(name, self.name) from None

    def __contains__(self, name: str) -> bool:
        return name in self.classes

    def __iter__(self) -> Iterator[IntegratedClass]:
        return iter(self.classes.values())

    def __len__(self) -> int:
        return len(self.classes)

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------
    def add_is_a(self, child: str, parent: str) -> bool:
        """Insert ``is_a(child, parent)``; True when new."""
        for name in (child, parent):
            if name not in self.classes:
                raise UnknownClassError(name, self.name)
        if child == parent:
            raise IntegrationError(f"is_a({child}, {parent}) is reflexive")
        link = (child, parent)
        if link in self._is_a:
            return False
        self._is_a.add(link)
        self.compiled_rules = None
        return True

    def remove_is_a(self, child: str, parent: str) -> bool:
        """Remove a redundant link (§6.2); True when it existed."""
        try:
            self._is_a.remove((child, parent))
            self.compiled_rules = None
            return True
        except KeyError:
            return False

    def is_a_links(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted(self._is_a))

    def parents(self, class_name: str) -> Tuple[str, ...]:
        return tuple(sorted(p for c, p in self._is_a if c == class_name))

    def children(self, class_name: str) -> Tuple[str, ...]:
        return tuple(sorted(c for c, p in self._is_a if p == class_name))

    def has_is_a_path(self, descendant: str, ancestor: str) -> bool:
        """Reachability along integrated is-a links (redundancy checks)."""
        if descendant == ancestor:
            return True
        frontier = [descendant]
        seen: Set[str] = set()
        while frontier:
            current = frontier.pop()
            for parent in self.parents(current):
                if parent == ancestor:
                    return True
                if parent not in seen:
                    seen.add(parent)
                    frontier.append(parent)
        return False

    # ------------------------------------------------------------------
    # rules
    # ------------------------------------------------------------------
    def add_rule(self, rule: Rule, principle: str, evaluable: bool = True) -> IntegratedRule:
        integrated = IntegratedRule(rule, principle, evaluable)
        self.rules.append(integrated)
        self.compiled_rules = None
        return integrated

    def evaluable_rules(self) -> List[Rule]:
        return [r.rule for r in self.rules if r.evaluable]

    def rules_by_principle(self, principle: str) -> List[IntegratedRule]:
        return [r for r in self.rules if r.principle == principle]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def note(self, message: str) -> None:
        self.log.append(message)

    def describe(self) -> str:
        lines = [f"integrated schema {self.name}:"]
        for integrated in self.classes.values():
            lines.append(integrated.describe())
        if self._is_a:
            lines.append("is-a links:")
            for child, parent in self.is_a_links():
                lines.append(f"  is_a({child}, {parent})")
        if self.rules:
            lines.append("rules:")
            for rule in self.rules:
                lines.append(f"  {rule}")
        return "\n".join(lines)

    def to_model_schema(self) -> Schema:
        """Project onto a plain :class:`~repro.model.schema.Schema`.

        Value-set specs and rules do not survive the projection — this
        is for reusing the hierarchy/shape in further integration rounds
        (the accumulation strategy of Fig 2) and for display.
        """
        from ..model.classes import ClassDef
        from ..model.datatypes import DataType

        schema = Schema(self.name)
        for integrated in self.classes.values():
            class_def = ClassDef(integrated.name)
            for attribute in integrated.attributes.values():
                class_def.attr(attribute.name, DataType.STRING)
            for aggregation in integrated.aggregations.values():
                class_def.agg(
                    aggregation.name,
                    aggregation.range_class,
                    aggregation.cardinality,
                )
            schema.add_class(class_def)
        for child, parent in self.is_a_links():
            schema.cls(child).add_parent(parent)
        return schema
