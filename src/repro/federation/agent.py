"""FSM-agents: local system management (§3, Fig 1).

An FSM-agent "corresponds to local system management and addresses all
the issues w.r.t. schema translations and exports as well as local
transaction and query processing."  :class:`FSMAgent` hosts component
databases — native object stores, or relational sources whose
:mod:`repro.sources` adapter performs the §3 schema translation — and
exposes exactly the narrow interface the FSM layer may use:

* export of the (transformed) local schema;
* extent and direct-extent scans of one class — the concept
  extensions the FSM pulls (§3, Appendix B) — whole, or the slice one
  shard endpoint owns (the store skips the rest); a direct extent scan
  may carry an equality selection in the local vocabulary, which the
  store may use to skip instances that cannot match;
* the delta-feed lookup :meth:`FSMAgent.fetch_changes`, a control-plane
  call that is not an extent scan.

Every access is counted, so the autonomy property (the FSM never
evaluates rules inside a component system, Appendix B) is testable.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from ..errors import RegistrationError
from ..model.database import ObjectDatabase
from ..model.instances import ObjectInstance
from ..model.schema import Schema
from ..model.store import ComponentStore, Selection

if TYPE_CHECKING:
    from ..runtime.sharding import ShardSpec


class FSMAgent:
    """A local-management agent hosting one or more component databases."""

    def __init__(self, name: str, system: str = "pyoodb") -> None:
        if not name:
            raise RegistrationError("agent name must be non-empty")
        self.name = name
        self.system = system
        self._databases: Dict[str, ComponentStore] = {}
        self.access_count = 0
        self.accessed_classes: Set[Tuple[str, str]] = set()
        #: delta-feed lookups served (not extent scans; see fetch_changes)
        self.delta_fetches = 0
        # the federation runtime scans agents from a thread pool; the
        # autonomy counters must stay exact under concurrent access
        self._access_lock = threading.Lock()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def host_object_database(self, database: ObjectDatabase) -> ObjectDatabase:
        """Install a native object database; keyed by its schema name."""
        schema_name = database.schema.name
        if schema_name in self._databases:
            raise RegistrationError(
                f"agent {self.name!r} already hosts schema {schema_name!r}"
            )
        self._databases[schema_name] = database
        return database

    def host_source(self, store: ComponentStore) -> ComponentStore:
        """Install any component store — e.g. a disk-backed source
        adapter's :class:`~repro.sources.SourceDatabase` — behind the
        same narrow FSM-facing interface as a native object database."""
        schema_name = store.schema.name
        if schema_name in self._databases:
            raise RegistrationError(
                f"agent {self.name!r} already hosts schema {schema_name!r}"
            )
        self._databases[schema_name] = store
        return store

    # ------------------------------------------------------------------
    # exports (the FSM-facing interface)
    # ------------------------------------------------------------------
    def schema_names(self) -> Tuple[str, ...]:
        return tuple(self._databases)

    def export_schema(self, schema_name: str) -> Schema:
        return self._database(schema_name).schema

    def database(self, schema_name: str) -> ComponentStore:
        """Direct access for in-process tooling (examples, tests)."""
        return self._database(schema_name)

    def fetch_extent(
        self,
        schema_name: str,
        class_name: str,
        shard: Optional["ShardSpec"] = None,
    ) -> List[ObjectInstance]:
        """The extension of one class — a local query; with *shard*, only
        the instances that shard endpoint owns."""
        self._record(schema_name, class_name)
        return self._database(schema_name).extent(class_name, shard)

    def fetch_direct_extent(
        self,
        schema_name: str,
        class_name: str,
        shard: Optional["ShardSpec"] = None,
        where: Selection = (),
    ) -> List[ObjectInstance]:
        """The direct extension of one class; with *where*, the store
        may leave out instances that cannot satisfy the selection."""
        self._record(schema_name, class_name)
        return self._database(schema_name).direct_extent(class_name, shard, where)

    def fetch_changes(self, schema_name: str, since: int) -> Any:
        """The store's delta chain from version *since*, or ``None`` when
        it keeps no feed (plain object databases).

        This is control-plane metadata, not a rule evaluation or an
        extent scan, so it is *not* counted in :attr:`access_count` —
        the autonomy property measures extent traffic; it is tallied
        separately in :attr:`delta_fetches`.
        """
        store = self._database(schema_name)
        changes_since = getattr(store, "changes_since", None)
        if changes_since is None:
            return None
        with self._access_lock:
            self.delta_fetches += 1
        from ..runtime.deltas import DeltaReply  # lazy: runtime imports agents

        chain = changes_since(since)
        return DeltaReply(chain if chain is None else tuple(chain))

    # ------------------------------------------------------------------
    def _database(self, schema_name: str) -> ComponentStore:
        try:
            return self._databases[schema_name]
        except KeyError:
            raise RegistrationError(
                f"agent {self.name!r} hosts no schema {schema_name!r}"
            ) from None

    def _record(self, schema_name: str, class_name: str) -> None:
        with self._access_lock:
            self.access_count += 1
            self.accessed_classes.add((schema_name, class_name))
