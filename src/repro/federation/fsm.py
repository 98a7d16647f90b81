"""The FSM layer: registration, integration strategies, global queries (§3).

The Federated System Manager "is responsible for merging potentially
conflicting local databases and defining global schemas" with
"centralized management".  :class:`FSM` is that layer:

* agents register; their hosted schemas become integration inputs;
* assertion sets (optionally in the DSL) are declared per schema pair;
* :meth:`integrate` runs the §6 algorithm on two schemas;
  :meth:`integrate_all` folds more than two using either Fig 2 strategy:
  ``accumulation`` (2(a): fold each next schema into the running result)
  or ``pairwise`` (2(b): integrate pairs, then pairs of results);
* cross-round assertions are *lifted*: an assertion ``S1.A θ S3.C``
  becomes ``IS1.IS(A) θ S3.C`` against the intermediate schema, with
  attribute paths renamed through the recorded provenance;
* :meth:`engine` / :meth:`query` evaluate global queries bottom-up;
  :meth:`appendix_b` builds the faithful top-down evaluator;
* :meth:`use_runtime` attaches a :class:`~repro.runtime.FederationRuntime`
  so both evaluation paths fan agent scans out concurrently, retry and
  circuit-break failing agents, serve repeats from the extent cache, and
  expose per-query :class:`~repro.runtime.RuntimeStats`
  (:attr:`last_query_stats`).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.policy import RuntimePolicy
    from ..runtime.runtime import FederationRuntime
    from ..runtime.metrics import RuntimeStats

from ..assertions.aggregation_assertions import AggregationCorrespondence
from ..assertions.assertion_set import AssertionSet
from ..assertions.attribute_assertions import AttributeCorrespondence
from ..assertions.class_assertions import ClassAssertion
from ..assertions.parser import parse as parse_assertions
from ..assertions.paths import Path
from ..assertions.value_assertions import ValueCorrespondence
from ..errors import QueryError, RegistrationError, RuntimeFederationError
from ..integration.naive import naive_schema_integration
from ..integration.naming import NamePolicy
from ..integration.optimized import schema_integration
from ..integration.result import IntegratedSchema
from ..integration.stats import IntegrationStats
from ..logic.labelled import LabelledProgram
from ..model.schema import Schema
from ..model.store import ComponentStore
from .agent import FSMAgent
from .evaluation import FederationEngine, appendix_b_program
from .mappings import MappingRegistry, SameObjectSpec
from .prepared import PreparedQuery, PreparedShapes
from .query import FederatedQuery

_ALGORITHMS = {
    "optimized": schema_integration,
    "naive": naive_schema_integration,
}


class FSM:
    """The Federated System Manager."""

    def __init__(self, name: str = "FSM", policy: Optional[NamePolicy] = None) -> None:
        self.name = name
        self.policy = policy
        self._agents: Dict[str, FSMAgent] = {}
        self._schema_host: Dict[str, str] = {}  # schema name -> agent name
        self._assertion_sets: Dict[Tuple[str, str], AssertionSet] = {}
        self.mappings = MappingRegistry()
        self.same_specs: List[SameObjectSpec] = []
        self.integrated: Optional[IntegratedSchema] = None
        self.last_stats: Optional[IntegrationStats] = None
        self.runtime: Optional["FederationRuntime"] = None
        self.last_query_stats: Optional["RuntimeStats"] = None
        self._shapes = PreparedShapes()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_agent(self, agent: FSMAgent) -> FSMAgent:
        """Register an FSM-agent and all schemas it hosts."""
        if agent.name in self._agents:
            raise RegistrationError(f"agent {agent.name!r} already registered")
        self._agents[agent.name] = agent
        for schema_name in agent.schema_names():
            if schema_name in self._schema_host:
                raise RegistrationError(
                    f"schema {schema_name!r} is already hosted by "
                    f"{self._schema_host[schema_name]!r}"
                )
            self._schema_host[schema_name] = agent.name
        return agent

    def agent(self, name: str) -> FSMAgent:
        try:
            return self._agents[name]
        except KeyError:
            raise RegistrationError(f"no agent {name!r} registered") from None

    def schema(self, schema_name: str) -> Schema:
        return self._host_of(schema_name).export_schema(schema_name)

    def schema_names(self) -> Tuple[str, ...]:
        return tuple(self._schema_host)

    def database(self, schema_name: str) -> ComponentStore:
        return self._host_of(schema_name).database(schema_name)

    def databases(self) -> Dict[str, ComponentStore]:
        return {name: self.database(name) for name in self._schema_host}

    def _host_of(self, schema_name: str) -> FSMAgent:
        try:
            return self._agents[self._schema_host[schema_name]]
        except KeyError:
            raise RegistrationError(
                f"no registered agent hosts schema {schema_name!r}"
            ) from None

    # ------------------------------------------------------------------
    # assertions and mappings
    # ------------------------------------------------------------------
    def declare(
        self, assertions: Union[str, Iterable[ClassAssertion]], validate: bool = True
    ) -> List[ClassAssertion]:
        """Declare assertions (DSL text or objects); grouped per pair."""
        parsed = (
            parse_assertions(assertions)
            if isinstance(assertions, str)
            else list(assertions)
        )
        for assertion in parsed:
            key = self._pair_key(assertion.left_schema, assertion.right_schema)
            assertion_set = self._assertion_sets.get(key)
            if assertion_set is None:
                assertion_set = AssertionSet(*key)
                self._assertion_sets[key] = assertion_set
            assertion_set.add(assertion)
            if validate:
                left = self.schema(assertion.left_schema)
                right = self.schema(assertion.right_schema)
                assertion.validate(left, right)
        return parsed

    def _pair_key(self, a: str, b: str) -> Tuple[str, str]:
        known = list(self._schema_host)
        if a in known and b in known:
            return (a, b) if known.index(a) < known.index(b) else (b, a)
        return (a, b) if a <= b else (b, a)

    def add_same_object(self, spec: SameObjectSpec) -> SameObjectSpec:
        self.same_specs.append(spec)
        return spec

    # ------------------------------------------------------------------
    # integration
    # ------------------------------------------------------------------
    def integrate(
        self, left_name: str, right_name: str, algorithm: str = "optimized"
    ) -> IntegratedSchema:
        """Integrate two registered schemas; stores and returns the result."""
        try:
            run = _ALGORITHMS[algorithm]
        except KeyError:
            raise QueryError(
                f"unknown algorithm {algorithm!r}; choose from "
                f"{sorted(_ALGORITHMS)}"
            ) from None
        left = self.schema(left_name)
        right = self.schema(right_name)
        key = self._pair_key(left_name, right_name)
        assertion_set = self._assertion_sets.get(key)
        if assertion_set is None:
            assertion_set = AssertionSet(*key)
        if assertion_set.left_name != left.name:
            left, right = right, left
        result, stats = run(left, right, assertion_set, self.policy)
        self.integrated = result
        self.last_stats = stats
        return result

    def integrate_all(
        self,
        order: Optional[Sequence[str]] = None,
        strategy: str = "accumulation",
        algorithm: str = "optimized",
    ) -> IntegratedSchema:
        """Integrate every registered schema (Fig 2 strategies).

        ``accumulation`` folds schemas left to right (Fig 2(a));
        ``pairwise`` integrates adjacent pairs, then pairs of results
        (Fig 2(b)).  Cross-round assertions are lifted through the
        intermediate schemas' provenance.
        """
        names = list(order or self._schema_host)
        if not names:
            raise RegistrationError("no schemas registered")
        for name in names:
            if name not in self._schema_host:
                raise RegistrationError(f"schema {name!r} is not registered")
        if len(names) == 1:
            raise RegistrationError("integration needs at least two schemas")

        run = _ALGORITHMS[algorithm]
        items: List[_Item] = [_Item(self.schema(name), {name}) for name in names]
        if strategy == "accumulation":
            current = items[0]
            for nxt in items[1:]:
                current = self._merge_items(current, nxt, run)
            final = current
        elif strategy == "pairwise":
            while len(items) > 1:
                merged: List[_Item] = []
                for index in range(0, len(items) - 1, 2):
                    merged.append(
                        self._merge_items(items[index], items[index + 1], run)
                    )
                if len(items) % 2:
                    merged.append(items[-1])
                items = merged
            final = items[0]
        else:
            raise QueryError(
                f"unknown strategy {strategy!r}; choose accumulation or pairwise"
            )
        assert final.result is not None
        self.integrated = final.result
        return final.result

    def _merge_items(self, left: "_Item", right: "_Item", run) -> "_Item":
        assertion_set = self._lift_assertions(left, right)
        result, stats = run(left.schema, right.schema, assertion_set, self.policy)
        self.last_stats = stats
        _flatten_origins(result, left.result, right.result)
        _carry_rules(result, left.result, right.result)
        merged = _Item(result.to_model_schema(), left.originals | right.originals)
        merged.result = result
        return merged

    def _lift_assertions(self, left: "_Item", right: "_Item") -> AssertionSet:
        """Build the assertion set between two (possibly intermediate)
        schemas by lifting the declared local-pair assertions."""
        assertion_set = AssertionSet(left.schema.name, right.schema.name)
        for left_original in left.originals:
            for right_original in right.originals:
                key = self._pair_key(left_original, right_original)
                declared = self._assertion_sets.get(key)
                if declared is None:
                    continue
                for assertion in declared:
                    lifted = _lift_assertion(assertion, left, right)
                    if lifted is not None:
                        assertion_set.add_if_new(lifted)
        return assertion_set

    # ------------------------------------------------------------------
    # runtime
    # ------------------------------------------------------------------
    def use_runtime(
        self,
        policy: Optional["RuntimePolicy"] = None,
        runtime: Optional["FederationRuntime"] = None,
        **options: Any,
    ) -> "FederationRuntime":
        """Attach a federation runtime to both evaluation paths.

        Either pass a prebuilt *runtime* alone (e.g. one whose transport
        simulates network faults), or a *policy* plus any
        :class:`~repro.runtime.FederationRuntime` *options* (``mode``,
        ``shard_plan``, ``cache_path``, ``loop``, ``plan``, ``deltas``,
        ``transport``) and the FSM builds the runtime — by default over
        an in-process transport on its live agent registry, so agents
        registered later are picked up automatically.
        """
        if runtime is not None:
            if policy is not None or options:
                raise RuntimeFederationError(
                    "use_runtime(runtime=...) takes no policy or options: "
                    "a prebuilt runtime is already configured"
                )
        else:
            from ..runtime.runtime import FederationRuntime
            from ..runtime.transport import InProcessTransport

            # the runtime lifts the in-process transport for async mode
            options.setdefault(
                "transport", InProcessTransport(self._agents, self._schema_host)
            )
            runtime = FederationRuntime(policy=policy, **options)
        self.runtime = runtime
        return runtime

    def detach_runtime(self) -> None:
        """Return to the seed's direct, sequential agent access."""
        self.runtime = None

    def runtime_stats(self) -> Optional["RuntimeStats"]:
        """Cumulative runtime counters, or None without a runtime."""
        return self.runtime.stats() if self.runtime is not None else None

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def engine(self, plan: Optional[Any] = None) -> FederationEngine:
        """A bottom-up federated engine over the last integration.

        *plan* — a :class:`~repro.runtime.planner.QueryPlan` — restricts
        fact lifting to the classes that can contribute to one query and
        threads its per-origin selections into the prefetch fan-out.
        """
        if self.integrated is None:
            raise QueryError("integrate schemas before querying")
        return FederationEngine(
            self.integrated,
            self.databases(),
            self.mappings,
            self.same_specs,
            runtime=self.runtime,
            plan=plan,
        )

    def prepare(self, query: FederatedQuery) -> PreparedQuery:
        """The prepared form of *query*'s shape (see
        :mod:`~repro.federation.prepared`): found in the LRU, or planned
        and compiled now.  Planning here goes through the runtime's
        planner when the runtime plans, and is bound to each call's
        constants by :meth:`plan_query`."""
        integrated = self.integrated
        if integrated is None:
            raise QueryError("integrate schemas before querying")
        runtime = self.runtime
        planning = (
            runtime.policy.cache_enabled
            if runtime is not None and getattr(runtime, "plan_enabled", False)
            else None
        )
        key = (
            query.class_name,
            tuple(name for name, _ in query.where),
            query.select,
            integrated,
            self.mappings,
            self.mappings.version,
            tuple(self._schema_host),
            planning,
        )
        prepared = self._shapes.get(key)
        if prepared is None:
            plan = None
            if planning is not None:
                from ..runtime import planner

                plan = planner.plan_query(
                    integrated,
                    query,
                    schemas={
                        name: self._host_of(name).export_schema(name)
                        for name in self._schema_host
                    },
                    mappings=self.mappings,
                    cache_enabled=planning,
                )
            prepared = PreparedQuery(plan, query.goal())
            self._shapes.put(key, prepared)
        return prepared

    def plan_query(self, query: Union[str, FederatedQuery]) -> Optional[Any]:
        """Plan *query* through the runtime's planner, or None when the
        runtime is absent, planning is disabled, or nothing is integrated.

        The plan lands on ``runtime.last_plan`` and ticks the
        ``planned_queries`` / ``pruned_classes`` counters.  It narrows
        the queried class's scans only when the runtime's cache is off.
        """
        if self.runtime is None or self.integrated is None:
            return None
        if isinstance(query, str):
            query = FederatedQuery.parse(query)
        return self._bind_plan(self.prepare(query), query)

    def _bind_plan(
        self, prepared: PreparedQuery, query: FederatedQuery
    ) -> Optional[Any]:
        """*prepared*'s plan for *query*'s constants, recorded on the
        runtime (``last_plan`` and the planning counters)."""
        runtime = self.runtime
        if prepared.plan is None or runtime is None:
            return None
        plan = prepared.plan.bind(query.where)
        runtime.last_plan = plan
        runtime.metrics.incr("planned_queries")
        if plan.pruned:
            runtime.metrics.incr("pruned_classes", len(plan.pruned))
        return plan

    def query(
        self, query: Union[str, FederatedQuery], appendix_b: bool = False
    ) -> List[Dict[str, Any]]:
        """Run a federated query (textual form accepted), bottom-up or,
        with *appendix_b*, through the top-down :meth:`appendix_b`
        evaluator.

        The bottom-up path runs the query's prepared shape
        (:meth:`prepare`): its plan is bound to the query's constants,
        the facts are lifted and materialized, and the compiled goal is
        solved.
        With a runtime attached, the per-query counter/timer delta lands
        in :attr:`last_query_stats` — the autonomy property (how many
        scans each agent served for *this* query) made observable.
        When the runtime has planning enabled, pruned classes are never
        scanned or lifted, the remaining granules coalesce per endpoint,
        and on a cache-off runtime the query's equalities narrow the
        queried class's scans at the component stores.
        """
        if isinstance(query, str):
            query = FederatedQuery.parse(query)
        # the top-down path plans inside appendix_b(prefetch=...), so its
        # planning counters and time fall inside the per-query delta
        prepared = None if appendix_b else self.prepare(query)
        plan = None if prepared is None else self._bind_plan(prepared, query)
        runtime = self.runtime
        if runtime is None:
            return self._answer(query, prepared, plan)
        before = runtime.stats()
        with runtime.timer("query"):
            rows = self._answer(query, prepared, plan)
        self.last_query_stats = runtime.stats() - before
        return rows

    def _answer(
        self,
        query: FederatedQuery,
        prepared: Optional[PreparedQuery],
        plan: Optional[Any],
    ) -> List[Dict[str, Any]]:
        if prepared is None:
            return query.run(self.appendix_b(prefetch=query))
        goal = prepared.goal.bind([value for _, value in query.where])
        return self.engine(plan=plan).ask(goal)

    def appendix_b(
        self, prefetch: Union[str, FederatedQuery, None] = None
    ) -> LabelledProgram:
        """The faithful Appendix B top-down evaluator.

        *prefetch* — the query about to run — lets the planner warm the
        extent cache in one coalesced fan-out over exactly the class
        extensions that can contribute, so the program's per-predicate
        fetches become cache hits instead of one round-trip each.  The
        evaluator itself is unchanged; autonomy (one concept extension
        per fetch) is preserved at the source layer.  The prefetch is
        never narrowed: the program reads whole extensions.
        """
        if self.integrated is None:
            raise QueryError("integrate schemas before querying")
        agents = {
            schema_name: self._host_of(schema_name)
            for schema_name in self._schema_host
        }
        if prefetch is not None and self.runtime is not None:
            plan = self.plan_query(prefetch)
            if plan is not None and plan.pairs:
                # AgentSource fetches full extents (op="extent"); warm
                # those granules so its per-predicate pulls hit the cache
                self.runtime.scan_extents(plan.pairs, op="extent")
        return appendix_b_program(
            self.integrated,
            agents,
            self.mappings,
            self.same_specs,
            self.databases(),
            runtime=self.runtime,
        )


class _Item:
    """An integration operand: a schema plus the original schemas in it.

    After every merge, the result's provenance is *flattened* so its
    ``IS`` map and member origins reference original schemas directly;
    lifting a path therefore takes a single :func:`_lift_path` step.
    """

    def __init__(self, schema: Schema, originals: "set[str]") -> None:
        self.schema = schema
        self.originals = set(originals)
        self.result: Optional[IntegratedSchema] = None


def _flatten_origins(
    result: IntegratedSchema,
    left: Optional[IntegratedSchema],
    right: Optional[IntegratedSchema],
) -> None:
    """Rewrite *result*'s provenance through its (intermediate) operands.

    An origin ``(IS1, person)`` where ``IS1`` is an operand result is
    replaced by that operand class's own (already flattened) origins, so
    after this pass every origin references an original schema.  Classes
    left with no origins are rule-defined, hence virtual.
    """
    operands = {op.name: op for op in (left, right) if op is not None}
    if not operands:
        return

    def flatten_class(origins):
        flat = []
        for schema_name, class_name in origins:
            operand = operands.get(schema_name)
            if operand is None:
                flat.append((schema_name, class_name))
                continue
            inner = operand.cls(class_name)
            flat.extend(inner.origins)
        return tuple(dict.fromkeys(flat))

    def flatten_member(origins):
        flat = []
        for schema_name, class_name, member in origins:
            operand = operands.get(schema_name)
            if operand is None:
                flat.append((schema_name, class_name, member))
                continue
            inner = operand.cls(class_name)
            inner_member = inner.attributes.get(member) or inner.aggregations.get(member)
            if inner_member is None:
                continue
            flat.extend(inner_member.origins)
        return tuple(dict.fromkeys(flat))

    for integrated_class in result:
        was_concrete = bool(integrated_class.origins)
        integrated_class.origins = flatten_class(integrated_class.origins)
        if was_concrete and not integrated_class.origins:
            integrated_class.virtual = True
        for attribute in integrated_class.attributes.values():
            attribute.origins = flatten_member(attribute.origins)
        for aggregation in integrated_class.aggregations.values():
            aggregation.origins = flatten_member(aggregation.origins)
        for schema_name, class_name in integrated_class.origins:
            result.map_origin(schema_name, class_name, integrated_class.name)


def _carry_rules(
    result: IntegratedSchema,
    left: Optional[IntegratedSchema],
    right: Optional[IntegratedSchema],
) -> None:
    """Re-home the operands' generated rules into the merged result.

    Rule O-terms reference operand-level class names; each is renamed to
    its image in *result* (operand classes are always placed, so the
    image exists).
    """
    from ..logic.oterms import OTerm
    from ..logic.rules import BodyItem, Rule

    for operand in (left, right):
        if operand is None:
            continue

        def rename(name):
            mapped = result.is_name(operand.name, name)
            return mapped if mapped is not None else name

        def rename_element(element):
            if isinstance(element, OTerm) and isinstance(element.class_name, str):
                return OTerm(
                    element.object_term, rename(element.class_name), element.bindings
                )
            return element

        for integrated_rule in operand.rules:
            rule = integrated_rule.rule
            renamed = Rule(
                tuple(rename_element(h) for h in rule.heads),
                tuple(
                    BodyItem(rename_element(item.element), item.positive)
                    for item in rule.body
                ),
                rule.name,
            )
            result.add_rule(
                renamed,
                principle=integrated_rule.principle,
                evaluable=integrated_rule.evaluable,
            )


def _lift_assertion(
    assertion: ClassAssertion, left: "_Item", right: "_Item"
) -> Optional[ClassAssertion]:
    """Rename an original-pair assertion to the current operand schemas.

    Classes map through the operand result's (flattened) ``IS`` map;
    attribute names map through the integrated attributes' recorded
    origins.  Returns None when a concept cannot be mapped.
    """
    def lift_side(path: Path, item: "_Item") -> Optional[Path]:
        if item.result is None:
            return path  # original schema, nothing to rename
        return _lift_path(path, item.result)

    left_is_source = assertion.left_schema in left.originals
    source_item = left if left_is_source else right
    target_item = right if left_is_source else left

    new_sources = []
    for source in assertion.sources:
        lifted = lift_side(source, source_item)
        if lifted is None:
            return None
        new_sources.append(lifted)
    new_target = lift_side(assertion.target, target_item)
    if new_target is None:
        return None

    def lift_value(corr: ValueCorrespondence, item: "_Item") -> Optional[ValueCorrespondence]:
        lifted_left = lift_side(corr.left, item)
        lifted_right = lift_side(corr.right, item)
        if lifted_left is None or lifted_right is None:
            return None
        return ValueCorrespondence(lifted_left, lifted_right, corr.op)

    def lift_attr(corr: AttributeCorrespondence) -> Optional[AttributeCorrespondence]:
        lifted_left = lift_side(corr.left, source_item)
        lifted_right = lift_side(corr.right, target_item)
        if lifted_left is None or lifted_right is None:
            return None
        return AttributeCorrespondence(
            lifted_left, lifted_right, corr.kind, corr.composed_name, corr.condition
        )

    def lift_agg(corr: AggregationCorrespondence) -> Optional[AggregationCorrespondence]:
        lifted_left = lift_side(corr.left, source_item)
        lifted_right = lift_side(corr.right, target_item)
        if lifted_left is None or lifted_right is None:
            return None
        return AggregationCorrespondence(lifted_left, lifted_right, corr.kind)

    value_left = [lift_value(c, source_item) for c in assertion.value_corrs_left]
    value_right = [lift_value(c, target_item) for c in assertion.value_corrs_right]
    attrs = [lift_attr(c) for c in assertion.attribute_corrs]
    aggs = [lift_agg(c) for c in assertion.aggregation_corrs]
    if any(c is None for c in value_left + value_right + attrs + aggs):
        return None
    return ClassAssertion(
        kind=assertion.kind,
        sources=tuple(new_sources),
        target=new_target,
        value_corrs_left=tuple(value_left),  # type: ignore[arg-type]
        value_corrs_right=tuple(value_right),  # type: ignore[arg-type]
        attribute_corrs=tuple(attrs),  # type: ignore[arg-type]
        aggregation_corrs=tuple(aggs),  # type: ignore[arg-type]
    )


def _lift_path(path: Path, result: IntegratedSchema) -> Optional[Path]:
    """Map one path through one intermediate integration result."""
    integrated_name = result.is_name(path.schema, path.class_name)
    if integrated_name is None:
        return None
    if path.is_class_path:
        return Path(result.name, integrated_name)
    integrated_class = result.cls(integrated_name)
    # Map the first element through attribute origins; deeper elements
    # keep their names (nested structure is preserved by copying).
    first = path.elements[0]
    renamed = first
    for attribute in integrated_class.attributes.values():
        if any(
            s == path.schema and c == path.class_name and a == first
            for s, c, a in attribute.origins
        ):
            renamed = attribute.name
            break
    else:
        for aggregation in integrated_class.aggregations.values():
            if any(
                s == path.schema and c == path.class_name and a == first
                for s, c, a in aggregation.origins
            ):
                renamed = aggregation.name
                break
    return Path(
        result.name,
        integrated_name,
        (renamed,) + path.elements[1:],
        path.name_reference,
    )
