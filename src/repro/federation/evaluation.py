"""Federated fact lifting and rule evaluation (§3, §5, Appendix B).

The FSM answers global queries by combining

1. **lifted base facts** — component extents renamed to integrated
   concepts (``inst$IS(A)`` / ``att$IS(A)$attr``), with attribute values
   translated through the ``F^A_{DB_i,B}`` data mappings, plus the
   ``same_object`` facts the identity specs produce;
2. **inheritance rules** — ``inst$parent(x) ⇐ inst$child(x)`` per
   integrated is-a link (the extension semantics of typing O-terms);
3. **the integrated schema's derivation rules** (Principles 3-5).

Two evaluation paths exist, as in the paper: the production bottom-up
engine (:class:`FederationEngine`, semi-naive, handles recursion) and
the faithful Appendix B top-down evaluator (:func:`appendix_b_program`),
whose :class:`AgentSource` fetches one concept extension per call — the
paper's autonomy argument made observable.
"""

from __future__ import annotations

import functools
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.cache import EntryVersion
    from ..runtime.planner import QueryPlan
    from ..runtime.runtime import FederationRuntime

from ..integration.result import IntegratedClass, IntegratedSchema
from ..logic.atoms import Atom
from ..logic.engine import FactStore, FactTuple, Goal, QueryEngine, iter_value_elements
from ..logic.labelled import LabelledProgram, SchemaSource
from ..logic.oterms import att_predicate, inst_predicate, parse_predicate
from ..logic.rules import DatalogRule, Rule, compile_rules
from ..model.store import ComponentStore
from .agent import FSMAgent
from .mappings import MappingRegistry, SameObjectSpec, same_object_facts


def inheritance_rules(integrated: IntegratedSchema) -> List[Rule]:
    """``inst$parent(x) ⇐ inst$child(x)`` for every integrated is-a link."""
    from ..logic.oterms import OTerm

    rules: List[Rule] = []
    for child, parent in integrated.is_a_links():
        rules.append(
            Rule.of(
                OTerm.of("?x", parent),
                [OTerm.of("?x", child)],
                name=f"is_a({child},{parent})",
            )
        )
    return rules


def integration_rules(integrated: IntegratedSchema) -> Tuple[DatalogRule, ...]:
    """*integrated*'s evaluable rules and its inheritance rules, compiled
    once per integration: the bottom-up engine, the prepared query
    shapes and the Appendix B program all evaluate this one program.

    The program is kept on the integration itself
    (:attr:`IntegratedSchema.compiled_rules`, published by one
    assignment), which drops it when a rule or an is-a link changes."""
    rules = integrated.compiled_rules
    if rules is None:
        rules = tuple(
            compile_rules(integrated.evaluable_rules() + inheritance_rules(integrated))
        )
        integrated.compiled_rules = rules
    return rules


def _ancestor_chain(integrated: IntegratedSchema, name: str) -> List[str]:
    """*name* and all its integrated ancestors (BFS order)."""
    chain = [name]
    frontier = list(integrated.parents(name))
    while frontier:
        current = frontier.pop(0)
        if current not in chain:
            chain.append(current)
            frontier.extend(integrated.parents(current))
    return chain


def lift_facts(
    integrated: IntegratedSchema,
    databases: Mapping[str, ComponentStore],
    mappings: Optional[MappingRegistry] = None,
    same_specs: Sequence[SameObjectSpec] = (),
    runtime: Optional["FederationRuntime"] = None,
    plan: Optional["QueryPlan"] = None,
) -> FactStore:
    """Compile all component extents into integrated-name facts.

    For every non-virtual integrated class ``N`` with origin ``(s, c)``:
    each instance of ``c``'s *direct* extent in schema *s* yields
    ``inst$N(oid)``, and per integrated attribute of ``N`` (or of an
    integrated ancestor of ``N``) with an origin in *s*, one
    ``att$...(oid, translated_value)`` fact per value element.
    Aggregation values (OIDs) lift untranslated under the aggregation's
    integrated name.

    With a *runtime*, every needed direct extent is first fetched in one
    concurrent fan-out (cached, retried, circuit-broken); the lifting
    loop then runs over the prefetched scans.  Extents the runtime could
    not serve (failed agents under the ``PARTIAL`` policy) lift as empty.
    Each ``(N, s, c)`` slice lifted from a cached extent granule is kept
    on that granule's cache entry and reused while the entry is served
    (:meth:`~repro.runtime.runtime.FederationRuntime.lift_slice`): the
    result is then a :class:`FactStore` layered over the shared slices.
    The entry also keeps the slice's lifter, so a delta patch to the
    extent publishes a patched copy of the slice by lifting only the
    instances it displaced and the ones it wrote.
    Slices are keyed by *integrated*'s identity and the *mappings*
    registry's identity and version, so a re-integration or a
    registration lifts afresh.

    A *plan* (:class:`~repro.runtime.planner.QueryPlan`) restricts both
    the prefetch and the lifting loop to the integrated classes that can
    contribute to its query — the §6 pruning closure guarantees skipped
    classes cannot change the answer — and hands the runtime its
    per-origin selections, so a cache-off runtime lifts only the
    instances of the queried class that can match the query.
    """
    if mappings is None:
        mappings = MappingRegistry()
    classes = [
        integrated_class
        for integrated_class in integrated
        if not integrated_class.virtual
        and (plan is None or plan.allows(integrated_class.name))
    ]

    prefetched: Optional[Dict[Tuple[str, str], List[Any]]] = None
    versions: Dict[Tuple[str, str], EntryVersion] = {}
    if runtime is not None:
        pairs = [
            origin
            for integrated_class in classes
            for origin in integrated_class.origins
            if origin[0] in databases
        ]
        prefetched = runtime.scan_extents(
            pairs,
            op="direct_extent",
            selections=plan.selections if plan is not None else None,
            versions=versions,
        )

    context = (integrated, mappings, mappings.version)
    slices: List[FactStore] = []
    unsliced = FactStore()  # extents no cache entry holds (cache off, shards)
    for integrated_class in classes:
        for schema_name, class_name in integrated_class.origins:
            database = databases.get(schema_name)
            if database is None:
                continue
            extent = (
                prefetched.get((schema_name, class_name), [])
                if prefetched is not None
                else database.direct_extent(class_name)
            )
            lift = functools.partial(
                _lift_slice,
                integrated,
                integrated_class,
                database,
                schema_name,
                class_name,
                mappings,
            )
            version = versions.get((schema_name, class_name))
            if version is None:
                lift(extent, unsliced)
            else:
                assert runtime is not None
                slices.append(
                    runtime.lift_slice(
                        version,
                        context,
                        integrated_class.name,
                        functools.partial(lift, extent),
                        lift,
                    )
                )

    store = FactStore(*slices, unsliced) if slices else unsliced
    if same_specs:
        same_object_facts(same_specs, databases, store)
    return store


def _lift_slice(
    integrated: IntegratedSchema,
    integrated_class: IntegratedClass,
    database: ComponentStore,
    schema_name: str,
    class_name: str,
    mappings: MappingRegistry,
    extent: Sequence[Any],
    store: Optional[FactStore] = None,
) -> FactStore:
    """Lift one ``(integrated class, schema, local class)`` slice of
    *extent* into *store* (a new one by default), and return it.

    Every fact lifted from an instance carries its OID first, so the
    facts of different instances never overlap: lifting any sub-list of
    an extent yields exactly those instances' share of the slice, which
    is what a delta patch removes and re-adds."""
    if store is None:
        store = FactStore()
    local_class = database.schema.effective_class(class_name)
    local_ancestry = {class_name} | database.schema.ancestors(class_name)
    targets = _ancestor_chain(integrated, integrated_class.name)
    for instance in extent:
        for target_name in targets:
            store.add(inst_predicate(target_name), (instance.oid,))
            target = integrated.cls(target_name)
            for attribute in target.attributes.values():
                for o_schema, o_class, o_attr in attribute.origins:
                    if o_schema != schema_name or o_class not in local_ancestry:
                        continue
                    if not local_class.has_member(o_attr):
                        continue
                    value = instance.get(o_attr)
                    if value is None:
                        continue
                    mapping = mappings.resolve(attribute.name, schema_name, o_attr)
                    for descriptor, element in iter_value_elements(
                        attribute.name, value
                    ):
                        translated = mapping.translate(element)
                        if translated is not None:
                            store.add(
                                att_predicate(target_name, descriptor),
                                (instance.oid, translated),
                            )
            for aggregation in target.aggregations.values():
                for o_schema, o_class, o_attr in aggregation.origins:
                    if o_schema != schema_name or o_class not in local_ancestry:
                        continue
                    value = instance.get(o_attr)
                    if value is None:
                        continue
                    elements = value if isinstance(value, frozenset) else (value,)
                    for element in elements:
                        store.add(
                            att_predicate(target_name, aggregation.name),
                            (instance.oid, element),
                        )
    return store


class FederationContext:
    """A live :class:`~repro.integration.result.ValueContext`.

    Answers ``value_set`` from component extents and ``paired_values``
    from the same-object specs — making the value-set specifications of
    Principles 1 and 3 (unions, differences, AIF applications,
    concatenations) executable against real data.
    """

    def __init__(
        self,
        databases: Mapping[str, ComponentStore],
        same_specs: Sequence[SameObjectSpec] = (),
    ) -> None:
        self._databases = databases
        self._same_specs = list(same_specs)

    def value_set(self, schema: str, class_name: str, attribute: str) -> Set[Any]:
        database = self._databases.get(schema)
        if database is None:
            return set()
        return database.value_set(class_name, attribute)

    def paired_values(self, left, right) -> List[Tuple[Any, Any]]:
        left_schema, left_class, left_attr = left
        right_schema, right_class, right_attr = right
        left_db = self._databases.get(left_schema)
        right_db = self._databases.get(right_schema)
        if left_db is None or right_db is None:
            return []
        pair_index: Dict[Any, List[Any]] = {}
        for spec in self._same_specs:
            if (
                spec.left_schema == left_schema
                and spec.left_class == left_class
                and spec.right_schema == right_schema
                and spec.right_class == right_class
            ):
                key_spec = spec
                break
        else:
            return []
        right_by_key: Dict[Any, List[Any]] = {}
        for instance in right_db.extent(right_class):
            key = key_spec.mapping.translate(instance.get(key_spec.right_key))
            if key is not None:
                right_by_key.setdefault(key, []).append(instance)
        pairs: List[Tuple[Any, Any]] = []
        for instance in left_db.extent(left_class):
            key = instance.get(key_spec.left_key)
            if key is None:
                continue
            for partner in right_by_key.get(key, ()):
                pairs.append((instance.get(left_attr), partner.get(right_attr)))
        return pairs


class FederationEngine:
    """Bottom-up federated query engine over an integrated schema.

    Building one lifts the facts (see :func:`lift_facts`); the rules are
    the integration's one compiled program (:func:`integration_rules`)."""

    def __init__(
        self,
        integrated: IntegratedSchema,
        databases: Mapping[str, ComponentStore],
        mappings: Optional[MappingRegistry] = None,
        same_specs: Sequence[SameObjectSpec] = (),
        runtime: Optional["FederationRuntime"] = None,
        plan: Optional["QueryPlan"] = None,
    ) -> None:
        self.integrated = integrated
        self.runtime = runtime
        self.plan = plan
        if runtime is not None:
            with runtime.timer("lift_facts"):
                base = lift_facts(
                    integrated, databases, mappings, same_specs, runtime, plan
                )
        else:
            base = lift_facts(
                integrated, databases, mappings, same_specs, plan=plan
            )
        self._engine = QueryEngine(integration_rules(integrated), base)

    def ask(self, *goals: Union[Atom, Goal]) -> List[Dict[str, Any]]:
        return self._engine.ask(*goals)

    def instances_of(self, class_name: str) -> List[Any]:
        """OIDs (or skolem tokens) populating an integrated class."""
        answers = self.ask(Atom.of(inst_predicate(class_name), "?o"))
        return [answer["o"] for answer in answers]

    def attribute_values(self, class_name: str, attribute: str) -> Set[Any]:
        answers = self.ask(Atom.of(att_predicate(class_name, attribute), "?o", "?v"))
        return {answer["v"] for answer in answers}


def evaluate_value_set(
    integrated: IntegratedSchema,
    class_name: str,
    attribute: str,
    databases: Mapping[str, ComponentStore],
    same_specs: Sequence[SameObjectSpec] = (),
) -> Set[Any]:
    """Compute ``value_set(IS_attr)`` of one integrated attribute.

    Executes the attribute's :class:`ValueSetSpec` (Principle 1/3
    semantics) against live component data — Example 6's union, the
    intersection splits, Example 8's AIF.
    """
    integrated_class = integrated.cls(class_name)
    try:
        spec = integrated_class.attributes[attribute].spec
    except KeyError:
        from ..errors import IntegrationError

        raise IntegrationError(
            f"integrated class {class_name!r} has no attribute {attribute!r}"
        ) from None
    context = FederationContext(databases, same_specs)
    return spec.evaluate(context, integrated.aifs)


class AgentSource(SchemaSource):
    """Appendix B source: one schema served live by its FSM-agent.

    ``fetch`` answers only mangled concept predicates (``inst$N`` /
    ``att$N$a``) whose integrated class has an origin in this schema,
    pulling exactly one class extension per call — never a rule, never
    a join: locals stay autonomous.
    """

    def __init__(
        self,
        schema_name: str,
        agent: FSMAgent,
        integrated: IntegratedSchema,
        mappings: Optional[MappingRegistry] = None,
        runtime: Optional["FederationRuntime"] = None,
    ) -> None:
        super().__init__(schema_name)
        self._agent = agent
        self._integrated = integrated
        self._mappings = mappings if mappings is not None else MappingRegistry()
        self._runtime = runtime

    def _extent(self, schema_name: str, local_class: str):
        """One class extension — through the runtime when attached."""
        if self._runtime is not None:
            return self._runtime.extent(schema_name, local_class)
        return self._agent.fetch_extent(schema_name, local_class)

    def _nested_descriptors(self, local_class: str, attr: str, base: str) -> List[str]:
        """Flattened descriptors under one local attribute (Def 4.1 paths)."""
        from ..model.attributes import ClassType

        schema = self._agent.export_schema(self.name)
        descriptors = [base]

        def walk(class_name: str, prefix: str, depth: int) -> None:
            if depth > 4:  # nested records are shallow in practice
                return
            effective = schema.effective_class(class_name)
            for nested in effective.attributes:
                dotted = f"{prefix}.{nested.name}"
                descriptors.append(dotted)
                if isinstance(nested.value_type, ClassType):
                    walk(nested.value_type.class_name, dotted, depth + 1)

        effective = schema.effective_class(local_class)
        attribute = effective.get_attribute(attr)
        if attribute is not None and isinstance(attribute.value_type, ClassType):
            walk(attribute.value_type.class_name, base, 0)
        return descriptors

    def concepts(self) -> Tuple[str, ...]:
        names: List[str] = []
        for integrated_class in self._integrated:
            if any(s == self.name for s, _ in integrated_class.origins):
                names.append(inst_predicate(integrated_class.name))
                for attribute in integrated_class.attributes.values():
                    for o_schema, o_class, o_attr in attribute.origins:
                        if o_schema != self.name:
                            continue
                        for descriptor in self._nested_descriptors(
                            o_class, o_attr, attribute.name
                        ):
                            names.append(
                                att_predicate(integrated_class.name, descriptor)
                            )
                        break
                for aggregation in integrated_class.aggregations.values():
                    if any(s == self.name for s, _, _ in aggregation.origins):
                        names.append(
                            att_predicate(integrated_class.name, aggregation.name)
                        )
        return tuple(names)

    def fetch(self, predicate: str) -> Set[FactTuple]:
        self.fetch_count += 1
        parsed = parse_predicate(predicate)
        if parsed is None:
            return set()
        class_name, descriptor = parsed
        if class_name not in self._integrated.classes:
            return set()
        integrated_class = self._integrated.cls(class_name)
        result: Set[FactTuple] = set()
        for schema_name, local_class in integrated_class.origins:
            if schema_name != self.name:
                continue
            if descriptor is None:
                for instance in self._extent(schema_name, local_class):
                    result.add((instance.oid,))
                continue
            # Nested (dotted) descriptors address inside a complex
            # attribute: the top-level member owns the origin mapping.
            top_level, _, _ = descriptor.partition(".")
            member = integrated_class.attributes.get(
                top_level
            ) or integrated_class.aggregations.get(top_level)
            if member is None:
                continue
            for o_schema, o_class, o_attr in member.origins:
                if o_schema != schema_name:
                    continue
                mapping = self._mappings.resolve(top_level, schema_name, o_attr)
                for instance in self._extent(schema_name, local_class):
                    value = instance.get(o_attr)
                    if value is None:
                        continue
                    for flattened, element in iter_value_elements(top_level, value):
                        if flattened != descriptor:
                            continue
                        translated = mapping.translate(element)
                        if translated is not None:
                            result.add((instance.oid, translated))
        return result


def appendix_b_program(
    integrated: IntegratedSchema,
    agents: Mapping[str, FSMAgent],
    mappings: Optional[MappingRegistry] = None,
    same_specs: Sequence[SameObjectSpec] = (),
    databases: Optional[Mapping[str, ComponentStore]] = None,
    runtime: Optional["FederationRuntime"] = None,
) -> LabelledProgram:
    """Build the Appendix B labelled program for an integrated schema.

    *agents* maps schema name → hosting agent.  ``same_object`` facts
    (needed by Principle 3 rules) are served by an extra synthetic
    source when *same_specs* and *databases* are provided.  With a
    *runtime*, every source's extension fetches run through the extent
    cache and the executor's failure model.
    """
    sources: List[SchemaSource] = [
        AgentSource(schema_name, agent, integrated, mappings, runtime)
        for schema_name, agent in agents.items()
    ]
    if same_specs and databases:
        store = same_object_facts(same_specs, databases)
        sources.append(SchemaSource("__identity__", store))
    return LabelledProgram(integration_rules(integrated), sources)
