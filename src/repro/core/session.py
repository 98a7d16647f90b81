"""FederationSession: the five-line path from databases to global queries.

Sugar over the full §3 stack for applications that do not need to manage
agents explicitly::

    session = FederationSession()
    session.add_database(db1)          # an ObjectDatabase (schema S1)
    session.add_source(adapter.database("S2"))  # or a relational source
    session.declare(ASSERTION_TEXT)
    session.integrate()
    session.query("uncle(niece_nephew='John') -> Ussn#")

Each database gets its own implicit FSM-agent (one component system per
agent, the paper's Fig 1 shape); everything else delegates to
:class:`repro.federation.fsm.FSM`, which stays available as
``session.fsm`` for advanced use (Appendix B evaluation, strategies,
data mappings).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.metrics import RuntimeStats
    from ..runtime.policy import RuntimePolicy
    from ..runtime.runtime import FederationRuntime

from ..federation.agent import FSMAgent
from ..federation.evaluation import FederationEngine
from ..federation.fsm import FSM
from ..federation.mappings import DataMapping, DefaultMapping, SameObjectSpec
from ..federation.query import FederatedQuery
from ..integration.naming import NamePolicy
from ..integration.result import IntegratedSchema
from ..model.database import ObjectDatabase
from ..model.store import ComponentStore


class FederationSession:
    """A guided federation workflow: add → declare → integrate → query."""

    def __init__(self, policy: Optional[NamePolicy] = None) -> None:
        self.fsm = FSM(policy=policy)
        self._agent_counter = 0

    # ------------------------------------------------------------------
    def add_database(self, database: ObjectDatabase, agent_name: str = "") -> FSMAgent:
        """Register an object database under a fresh implicit agent."""
        agent = FSMAgent(agent_name or self._next_agent_name())
        agent.host_object_database(database)
        self.fsm.register_agent(agent)
        return agent

    def add_source(self, store: "ComponentStore", agent_name: str = "") -> FSMAgent:
        """Register any component store — e.g. a disk-backed
        :class:`~repro.sources.SourceDatabase` — under a fresh agent."""
        agent = FSMAgent(agent_name or self._next_agent_name())
        agent.host_source(store)
        self.fsm.register_agent(agent)
        return agent

    def _next_agent_name(self) -> str:
        self._agent_counter += 1
        return f"FSM-agent{self._agent_counter}"

    # ------------------------------------------------------------------
    def declare(self, assertions: Union[str, Sequence[Any]]) -> None:
        self.fsm.declare(assertions)

    def identify(
        self,
        left: str,
        right: str,
        mapping: Optional[DataMapping] = None,
    ) -> SameObjectSpec:
        """Declare object identity via key attributes.

        *left*/*right* are dotted ``schema.class.key`` strings, e.g.
        ``identify("S1.faculty.fssn#", "S2.student.ssn#")``.
        """
        left_schema, left_class, left_key = left.split(".", 2)
        right_schema, right_class, right_key = right.split(".", 2)
        spec = SameObjectSpec(
            left_schema, left_class, left_key,
            right_schema, right_class, right_key,
            mapping=mapping or DefaultMapping(),
        )
        return self.fsm.add_same_object(spec)

    # ------------------------------------------------------------------
    def integrate(
        self,
        strategy: str = "accumulation",
        algorithm: str = "optimized",
        order: Optional[Sequence[str]] = None,
    ) -> IntegratedSchema:
        """Integrate all registered schemas (two or more)."""
        names = list(order or self.fsm.schema_names())
        if len(names) == 2:
            return self.fsm.integrate(names[0], names[1], algorithm=algorithm)
        return self.fsm.integrate_all(names, strategy=strategy, algorithm=algorithm)

    @property
    def integrated(self) -> Optional[IntegratedSchema]:
        return self.fsm.integrated

    # ------------------------------------------------------------------
    def enable_runtime(
        self,
        policy: Optional["RuntimePolicy"] = None,
        runtime: Optional["FederationRuntime"] = None,
        **options: Any,
    ) -> "FederationRuntime":
        """Route agent access through a federation runtime (concurrent
        fan-out, retries, extent caching, metrics); *options* are the
        :class:`~repro.runtime.FederationRuntime` options, see
        :meth:`repro.federation.fsm.FSM.use_runtime`."""
        return self.fsm.use_runtime(policy, runtime, **options)

    @property
    def runtime(self) -> Optional["FederationRuntime"]:
        return self.fsm.runtime

    def runtime_stats(self) -> Optional["RuntimeStats"]:
        """Cumulative runtime counters (None when no runtime is enabled)."""
        return self.fsm.runtime_stats()

    @property
    def last_query_stats(self) -> Optional["RuntimeStats"]:
        """The counter/timer delta of the most recent :meth:`query`."""
        return self.fsm.last_query_stats

    def close(self) -> None:
        """Release the attached runtime's resources (loop thread,
        persistent cache store).  Idempotent; a no-op when no runtime
        was ever enabled."""
        if self.fsm.runtime is not None:
            self.fsm.runtime.close()

    # ------------------------------------------------------------------
    def engine(self) -> FederationEngine:
        return self.fsm.engine()

    def query(self, query: Union[str, FederatedQuery]) -> List[Dict[str, Any]]:
        return self.fsm.query(query)
