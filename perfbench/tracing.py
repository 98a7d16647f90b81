"""Per-layer tracing from outside the program.

The tracer wraps public functions of each layer module with timing
wrappers; the program's own code is not edited.  Every wrapped call is a
span on its thread's stack.  A span's *self time* is its wall time minus
the wall time of the traced spans it directly contains on the same
thread, so self times of one thread never overlap and add up to the
root span's wall time.  Work done on other threads (the runtime's scan
workers, the service's executor) is traced on those threads' own
stacks and is never subtracted from the caller.

Counts (facts lifted, instances scanned, facts derived) are taken from
the wrapped calls' arguments and return values, after the span closes.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: name of the per-query root span (``FSM.query``)
ROOT_SPAN = "query"


class Tracer:
    """Span totals per name, kept in memory until the run ends."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._predicates: Dict[str, frozenset] = {}
        #: the unwrapped query parser (set by :func:`install_layers`)
        self.parse_query: Callable[[str], Any] = lambda text: None
        self.reset()

    def reset(self) -> None:
        with self._lock:
            #: span name -> [calls, wall seconds, self seconds]
            self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
            #: count name -> summed value
            self.counts: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> None:
        self._stack().append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        stack = self._stack()
        name, started, children = stack.pop()
        wall = time.perf_counter() - started
        if stack:
            stack[-1][2] += wall
        with self._lock:
            entry = self.spans[name]
            entry[0] += 1
            entry[1] += wall
            entry[2] += wall - children

    def add_span(self, name: str, seconds: float) -> None:
        """Record a measured interval that is not a call (a queue wait)."""
        with self._lock:
            entry = self.spans[name]
            entry[0] += 1
            entry[1] += seconds
            entry[2] += seconds

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def current_query(self) -> Optional[Any]:
        """The query (text or FederatedQuery) the calling thread answers."""
        return getattr(self._local, "query", None)

    def query_predicates(self, query: Any) -> frozenset:
        """Predicates of the query's own goals (``inst$C``, ``att$C$a``)."""
        key = str(query)
        predicates = self._predicates.get(key)
        if predicates is None:
            if isinstance(query, str):
                query = self.parse_query(query)
            predicates = frozenset(atom.predicate for atom in query.atoms())
            self._predicates[key] = predicates
        return predicates

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        after: Optional[Callable[["Tracer", tuple, Any], None]] = None,
    ) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        *after* receives ``(tracer, args, result)`` once the span has
        closed, to record counts.  Classmethods are unwrapped and
        re-wrapped so the class binding still works.
        """
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(
            owner, attribute
        )
        is_classmethod = isinstance(original, classmethod)
        function = original.__func__ if is_classmethod else original
        tracer = self

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, result)
            return result

        replacement = classmethod(wrapper) if is_classmethod else wrapper
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def wrap_query_root(self, owner: Any, attribute: str) -> None:
        """Wrap ``FSM.query``: the per-query root span, which also makes
        the query visible to the lift wrapper's usefulness count."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def wrapper(fsm: Any, query: Any, *args: Any, **kwargs: Any) -> Any:
            previous = getattr(tracer._local, "query", None)
            tracer._local.query = query
            tracer.enter(ROOT_SPAN)
            try:
                return original(fsm, query, *args, **kwargs)
            finally:
                tracer.exit()
                tracer._local.query = previous

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def wrap_offload(self, owner: Any) -> None:
        """Wrap ``FederationService.offload``: the time from the call to
        the start of the offloaded function is the service queue wait."""
        original = owner.__dict__["offload"]
        tracer = self

        @functools.wraps(original)
        async def offload(service: Any, fn: Callable[..., Any], *args: Any) -> Any:
            called = time.perf_counter()

            def started(*inner: Any) -> Any:
                tracer.add_span("service.queue_wait", time.perf_counter() - called)
                return fn(*inner)

            return await original(service, started, *args)

        self._patches.append((owner, "offload", original))
        setattr(owner, "offload", offload)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# the layer map: which public functions make up each layer
# ----------------------------------------------------------------------
def _count_lifted(tracer: Tracer, args: tuple, store: Any) -> None:
    tracer.count("facts_lifted", len(store))
    query = tracer.current_query()
    if query is None:
        return
    predicates = tracer.query_predicates(query)
    tracer.count("facts_useful", sum(len(store.facts(p)) for p in predicates))


def _count_derived(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.count("facts_derived", len(result) - len(args[1]))


def _count_scanned(tracer: Tracer, args: tuple, extent: Any) -> None:
    tracer.count("instances_scanned", len(extent))


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer's public functions (see README.md, "Layers")."""
    import repro.federation.evaluation as evaluation
    import repro.logic.engine as engine
    import repro.runtime.planner as planner
    import repro.service.repository as repository
    import repro.sources as sources
    from repro.federation.fsm import FSM
    from repro.federation.query import FederatedQuery
    from repro.runtime.runtime import FederationRuntime
    from repro.service.app import FederationService
    from repro.sources.base import SourceDatabase
    from repro.sources.sqlite_source import SqliteSourceAdapter

    tracer.parse_query = FederatedQuery.parse
    # sources
    tracer.wrap(sources, "load_source_federation", "sources.open")
    tracer.wrap(SourceDatabase, "direct_extent", "sources.scan", _count_scanned)
    tracer.wrap(SourceDatabase, "extent", "sources.scan", _count_scanned)
    tracer.wrap(SqliteSourceAdapter, "insert_row", "sources.write")
    tracer.wrap(SqliteSourceAdapter, "update_row", "sources.write")
    # integration
    tracer.wrap(FSM, "integrate_all", "integration.integrate")
    # runtime
    tracer.wrap(planner, "plan_query", "runtime.plan")
    tracer.wrap(FederationRuntime, "scan_extents", "runtime.scan")
    tracer.wrap(FederationRuntime, "stats", "runtime.stats")
    # federation
    tracer.wrap(FederatedQuery, "parse", "federation.parse")
    tracer.wrap(FederatedQuery, "from_payload", "federation.parse")
    tracer.wrap(evaluation, "lift_facts", "federation.lift", _count_lifted)
    # logic
    tracer.wrap(engine, "evaluate", "logic.materialize", _count_derived)
    tracer.wrap(engine.QueryEngine, "ask", "logic.solve")
    # service
    tracer.wrap_offload(FederationService)
    tracer.wrap(repository.FederationRepository, "query", "service.repository")
    tracer.wrap(repository, "rows_to_json", "service.serialize")
    # the per-query root
    tracer.wrap_query_root(FSM, "query")
