"""The federation query planner: prune, coalesce, push down.

The runtime executes one :class:`~repro.runtime.transport.ScanRequest`
per (agent, class, op); a multi-class query or Appendix-B
rule evaluation therefore pays many round-trips per agent.  This module
plans a :class:`~repro.federation.query.FederatedQuery` into a
:class:`QueryPlan` before any scan is dispatched:

1. **Prune** — the assertion-graph reachability argument §6's
   ``schema_integration`` applies at integration time is replayed at
   query time: starting from the queried class, a fixpoint over the
   integrated is-a links (descendant extents feed ancestors through the
   inheritance rules) and the evaluable derivation rules (a rule whose
   head can reach a relevant class makes its body classes relevant)
   yields the set of integrated classes that can possibly contribute a
   fact to the answer.  Everything else is never scanned and never
   lifted.  The closure is deliberately conservative: any indeterminate
   head or schematic (variable-class) body disables pruning for that
   path, so a planned query can only scan *less*, never answer less.
2. **Coalesce** — all granules bound for one endpoint ride a single
   batched round-trip (:func:`~repro.runtime.executor.coalesce_by_endpoint`
   builds the :class:`~repro.runtime.transport.BatchScanRequest`\\ s;
   the executors own that step since they own dispatch).
3. **Push down** — when the query's scans will not be cached, each
   ``attribute = constant`` of the query becomes a selection in the
   **local** vocabulary of every origin of the queried class it can
   safely narrow (:data:`QueryPlan.selections`), and the component
   store materializes only the instances that can match.  The agent
   still runs its own local query (§3 autonomy); the engine still
   evaluates the whole query, so narrowing removes work but never
   changes an answer.  An origin ``(s, c)`` of the queried class ``C``
   is narrowed on ``a = v`` only when

   * no evaluable rule reads ``C`` or an integrated ancestor of ``C``
     in its body, derives facts about ``C`` in its head, or ranges
     over classes schematically — so every ``C`` fact of an object
     scanned from ``(s, c)`` is lifted from that object alone;
   * ``C``'s integrated attribute ``a`` has exactly one origin
     attribute ``b`` visible on ``c`` in schema ``s``, and ``b`` is not
     an aggregation;
   * the federation's data-mapping registry resolves ``(a, s, b)`` to
     :class:`~repro.federation.mappings.DefaultMapping`, so the value
     lifted is the value the store tests;
   * ``v`` is hashable (the selection is part of request identity).

   Origins of ``C``'s descendants are scanned in full.  Every origin
   of ``C`` left unnarrowed is named with its reason in
   :data:`QueryPlan.unnarrowed`.

The planner sees only schema-level metadata (the integrated schema's
classes, links and rules) — never component data — so planning cost is
independent of extent sizes.
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING,
    Any,
    Container,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..federation.evaluation import _ancestor_chain
from ..federation.mappings import DefaultMapping, MappingRegistry
from ..logic.atoms import Atom
from ..logic.oterms import OTerm, parse_predicate
from ..model.store import Selection, describe_selection

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..federation.query import FederatedQuery
    from ..integration.result import IntegratedClass, IntegratedSchema
    from ..model.schema import Schema

#: body predicates whose facts exist independently of class scans —
#: ``same_object`` comes from the identity specs, ``is_a`` from the
#: integrated schema itself — so they never widen the scan set
_SCAN_FREE_PREDICATES = frozenset({"same_object", "is_a"})

#: one origin's narrowing decisions: per ``where`` position of a query
#: shape, ``(local attribute, "")`` or ``(None, why not)``
Decisions = Tuple[Tuple[Optional[str], str], ...]


@dataclasses.dataclass(frozen=True)
class QueryPlan:
    """What one query needs from the federation, decided before dispatch."""

    #: the integrated class the query ranges over
    class_name: str
    #: integrated classes that can contribute facts to the answer
    contributing: FrozenSet[str]
    #: non-virtual integrated classes the plan skips (never scanned)
    pruned: Tuple[str, ...]
    #: (schema, local class) direct-extent scans the plan still needs
    pairs: Tuple[Tuple[str, str], ...]
    #: (schema, local class) → the local selection its scan may carry
    selections: Dict[Tuple[str, str], Selection] = dataclasses.field(
        default_factory=dict
    )
    #: origins of the queried class scanned in full despite the query's
    #: equalities → why (``cache on``, ``rule reads C``, ...)
    unnarrowed: Dict[Tuple[str, str], str] = dataclasses.field(
        default_factory=dict
    )
    #: on a cache-off plan, every origin of the queried class → per
    #: ``where`` position, the local attribute a selection tests or None
    #: and why not (None for the whole origin: no local schema); what
    #: :meth:`bind` needs to narrow for other constants of the same shape
    narrowing: Dict[Tuple[str, str], Optional[Decisions]] = dataclasses.field(
        default_factory=dict, compare=False, repr=False
    )

    def bind(self, where: Sequence[Tuple[str, Any]]) -> "QueryPlan":
        """This plan for a query of the same shape with the constants of
        *where*: the same classes and scans, its own selections.

        An origin is narrowed on every position whose local attribute is
        known and whose constant is hashable (it becomes part of request
        identity); one with none stays full, with the first reason in
        ``where`` order."""
        if not self.narrowing:
            return self
        selections: Dict[Tuple[str, str], Selection] = {}
        unnarrowed: Dict[Tuple[str, str], str] = {}
        for origin, decisions in self.narrowing.items():
            if decisions is None:
                unnarrowed[origin] = "no local schema"
                continue
            tests: List[Tuple[str, Any]] = []
            reason = ""
            for (local, why), (_, constant) in zip(decisions, where):
                if not _hashable(constant):
                    reason = reason or "unhashable constant"
                elif local is None:
                    reason = reason or why
                else:
                    tests.append((local, constant))
            if tests:
                selections[origin] = tuple(tests)
            else:
                unnarrowed[origin] = reason
        return dataclasses.replace(self, selections=selections, unnarrowed=unnarrowed)

    def allows(self, class_name: str) -> bool:
        """May *class_name* contribute to this query's answer?"""
        return class_name in self.contributing

    def describe(self) -> str:
        kept = len(self.contributing)
        text = (
            f"plan({self.class_name}: {kept} classes kept, "
            f"{len(self.pruned)} pruned, {len(self.pairs)} scans"
        )
        if self.selections:
            text += "; narrowed " + ", ".join(
                f"{schema}.{local}[{describe_selection(where)}]"
                for (schema, local), where in self.selections.items()
            )
        if self.unnarrowed:
            text += "; full " + ", ".join(
                f"{schema}.{local} ({reason})"
                for (schema, local), reason in self.unnarrowed.items()
            )
        return text + ")"


class _RuleFeeds:
    """One evaluable rule's head/body coordinates for the fixpoint."""

    __slots__ = (
        "head_classes",
        "head_predicates",
        "head_indeterminate",
        "body_classes",
        "body_predicates",
        "body_schematic",
    )

    def __init__(self) -> None:
        self.head_classes: Set[str] = set()
        self.head_predicates: Set[str] = set()
        #: a variable class name (or non-O-term head) can derive facts
        #: about any class — such a rule always fires in the closure
        self.head_indeterminate = False
        self.body_classes: Set[str] = set()
        self.body_predicates: Set[str] = set()
        #: a schematic body ranges over every class — pruning must stop
        self.body_schematic = False


def _classify_rule(rule) -> _RuleFeeds:
    feeds = _RuleFeeds()
    for head in rule.heads:
        if isinstance(head, OTerm):
            if isinstance(head.class_name, str):
                feeds.head_classes.add(head.class_name)
            else:
                feeds.head_indeterminate = True
        elif isinstance(head, Atom):
            parsed = parse_predicate(head.predicate)
            if parsed is not None:
                feeds.head_classes.add(parsed[0])
            else:
                feeds.head_predicates.add(head.predicate)
        else:  # TypingOTerm or anything newer: be conservative
            feeds.head_indeterminate = True
    for item in rule.body:
        element = item.element
        if isinstance(element, OTerm):
            if isinstance(element.class_name, str):
                feeds.body_classes.add(element.class_name)
            else:
                feeds.body_schematic = True
        elif isinstance(element, Atom):
            parsed = parse_predicate(element.predicate)
            if parsed is not None:
                feeds.body_classes.add(parsed[0])
            else:
                feeds.body_predicates.add(element.predicate)
        # Comparisons and typing O-terms consume no scanned facts
    return feeds


def _rule_feeds(integrated: "IntegratedSchema") -> List[_RuleFeeds]:
    return [_classify_rule(rule) for rule in integrated.evaluable_rules()]


def contributing_classes(
    integrated: "IntegratedSchema",
    class_name: str,
    feeds: Optional[Sequence[_RuleFeeds]] = None,
) -> FrozenSet[str]:
    """The integrated classes whose extents can feed facts about
    *class_name* — the §6 pruning argument run at query time.

    Unknown classes (or any indeterminate rule shape encountered during
    the closure) fall back to *every* class: the planner never guesses.
    """
    all_classes = frozenset(integrated.classes)
    if class_name not in all_classes:
        return all_classes

    children: Dict[str, Set[str]] = {}
    for child, parent in integrated.is_a_links():
        children.setdefault(parent, set()).add(child)
    if feeds is None:
        feeds = _rule_feeds(integrated)
    # base facts for same_object / is_a exist without any class scan —
    # but only treat them as scan-free if no rule also *derives* them
    derived_predicates: Set[str] = set()
    for rule in feeds:
        derived_predicates.update(rule.head_predicates)
    scan_free = _SCAN_FREE_PREDICATES - derived_predicates

    relevant: Set[str] = {class_name}
    relevant_predicates: Set[str] = set()
    changed = True
    while changed:
        changed = False
        # descendants feed ancestors: inst$parent(x) <= inst$child(x),
        # and lifting pushes a class's facts up its whole ancestor chain
        frontier = list(relevant)
        while frontier:
            for child in children.get(frontier.pop(), ()):
                if child not in relevant:
                    relevant.add(child)
                    frontier.append(child)
                    changed = True
        for rule in feeds:
            fires = (
                rule.head_indeterminate
                or not rule.head_classes.isdisjoint(relevant)
                or not rule.head_predicates.isdisjoint(relevant_predicates)
            )
            if not fires:
                continue
            if rule.body_schematic:
                return all_classes
            for body_class in rule.body_classes:
                if body_class not in relevant:
                    relevant.add(body_class)
                    changed = True
            for predicate in rule.body_predicates:
                if predicate not in scan_free and predicate not in relevant_predicates:
                    relevant_predicates.add(predicate)
                    changed = True
    return frozenset(relevant & all_classes)


def _rule_conflict(
    integrated: "IntegratedSchema", class_name: str, feeds: Sequence[_RuleFeeds]
) -> Optional[str]:
    """Why a rule forbids narrowing *class_name*'s origins, or None.

    A rule that reads the class (or an ancestor, whose extent holds the
    class's objects) could derive other facts from the objects a narrowed
    scan leaves out; a rule that derives facts about the class could
    give a left-out object the queried value."""
    guarded = set(_ancestor_chain(integrated, class_name))
    for rule in feeds:
        if rule.body_schematic or not rule.body_classes.isdisjoint(guarded):
            return f"rule reads {class_name}"
        if rule.head_indeterminate or class_name in rule.head_classes:
            return f"rule derives {class_name}"
    return None


def _local_attribute(
    integrated_class: "IntegratedClass",
    name: str,
    schema_name: str,
    local_class: str,
    local_schema: "Schema",
    mappings: MappingRegistry,
) -> Tuple[Optional[str], str]:
    """The local attribute a narrowed scan of ``(schema, local class)``
    tests for the query's *name*, or ``(None, reason)``.

    Mirrors the lifting loop: the value lifted as ``att$C$name`` for an
    object of *local_class* comes from the origin attributes of *name*
    in *schema_name* that are declared on *local_class* or a local
    ancestor of it."""
    attribute = integrated_class.attributes.get(name)
    if attribute is None:
        if name in integrated_class.aggregations:
            return None, "aggregation"
        return None, "no origin attribute"
    ancestry = {local_class} | local_schema.ancestors(local_class)
    effective = local_schema.effective_class(local_class)
    candidates = [
        o_attr
        for o_schema, o_class, o_attr in attribute.origins
        if o_schema == schema_name
        and o_class in ancestry
        and effective.has_member(o_attr)
    ]
    if not candidates:
        return None, "no origin attribute"
    if len(set(candidates)) > 1:
        return None, "several origin attributes"
    local = candidates[0]
    if effective.get_aggregation(local) is not None:
        return None, "aggregation"
    if type(mappings.resolve(name, schema_name, local)) is not DefaultMapping:
        return None, "registry mapping"
    return local, ""


def _hashable(value: Any) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def _narrowing(
    integrated: "IntegratedSchema",
    query: "FederatedQuery",
    origins: Sequence[Tuple[str, str]],
    schemas: Mapping[str, "Schema"],
    mappings: MappingRegistry,
    feeds: Sequence[_RuleFeeds],
) -> Tuple[Dict[Tuple[str, str], Optional[Decisions]], Dict[Tuple[str, str], str]]:
    """Per origin, what a selection could test for each ``where``
    position of *query* (see the module docstring for the conditions),
    or, when a rule forbids narrowing the class, no decisions and that
    reason for every origin."""
    conflict = _rule_conflict(integrated, query.class_name, feeds)
    if conflict is not None:
        return {}, dict.fromkeys(origins, conflict)
    narrowing: Dict[Tuple[str, str], Optional[Decisions]] = {}
    integrated_class = integrated.cls(query.class_name)
    for origin in origins:
        schema_name, local_class = origin
        local_schema = schemas.get(schema_name)
        if local_schema is None or local_class not in local_schema:
            narrowing[origin] = None
            continue
        narrowing[origin] = tuple(
            _local_attribute(
                integrated_class, name, schema_name, local_class, local_schema, mappings
            )
            for name, _ in query.where
        )
    return narrowing, {}


def plan_query(
    integrated: "IntegratedSchema",
    query: "FederatedQuery",
    schemas: "Optional[Container[str] | Mapping[str, Schema]]" = None,
    mappings: Optional[MappingRegistry] = None,
    cache_enabled: bool = False,
) -> QueryPlan:
    """Plan *query* against *integrated*: prune, then push selections.

    *schemas* restricts the scan pairs to component schemas the caller
    can actually reach (the FSM's registered databases); None keeps all
    origins.  Given as a mapping to each component's exported local
    schema, it also lets the planner push the query's equalities into
    the scans of the queried class's origins (resolved through
    *mappings*, the federation's data-mapping registry).  A runtime
    with its cache on (*cache_enabled*) never narrows: a cached granule
    must hold the whole extent.
    """
    feeds = _rule_feeds(integrated)
    contributing = contributing_classes(integrated, query.class_name, feeds)
    pruned: List[str] = []
    pairs: List[Tuple[str, str]] = []
    for integrated_class in integrated:
        if integrated_class.virtual:
            continue
        if integrated_class.name not in contributing:
            pruned.append(integrated_class.name)
            continue
        for schema_name, local_class in integrated_class.origins:
            if schemas is None or schema_name in schemas:
                pairs.append((schema_name, local_class))
    narrowing: Dict[Tuple[str, str], Optional[Decisions]] = {}
    unnarrowed: Dict[Tuple[str, str], str] = {}
    if query.where and query.class_name in integrated:
        origins = [
            origin
            for origin in integrated.cls(query.class_name).origins
            if schemas is None or origin[0] in schemas
        ]
        if cache_enabled:
            unnarrowed = dict.fromkeys(origins, "cache on")
        else:
            narrowing, unnarrowed = _narrowing(
                integrated,
                query,
                origins,
                schemas if isinstance(schemas, Mapping) else {},
                mappings if mappings is not None else MappingRegistry(),
                feeds,
            )
    return QueryPlan(
        class_name=query.class_name,
        contributing=contributing,
        pruned=tuple(pruned),
        pairs=tuple(dict.fromkeys(pairs)),
        unnarrowed=unnarrowed,
        narrowing=narrowing,
    ).bind(query.where)
