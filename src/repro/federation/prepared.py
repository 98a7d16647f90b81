"""Prepared query shapes: the FSM's mediation of a query (§3), done once
per shape instead of once per call.

A query's *shape* is its class, the attribute names of its ``where``
conditions in order, and its ``select``; its constants are parameters,
so ``person(level=1)`` and ``person(level=5)`` are one shape.  For each
shape the FSM keeps a :class:`PreparedQuery` in a bounded LRU
(:class:`PreparedShapes`), keyed by the shape and by everything the
mediation read: the integration, the data-mapping registry and its
version, the registered schema names, and the runtime's planning mode.
A re-integration, a mapping registration or a new agent therefore
prepares afresh on the next call.

An entry holds the planner's :class:`~repro.runtime.planner.QueryPlan`
for the shape (bound to each call's constants by
:meth:`~repro.runtime.planner.QueryPlan.bind`) and the compiled goal
(:class:`~repro.logic.engine.Goal`, whose columns build each answer row
once).  It holds no facts: source versions are checked, deltas synced,
slices looked up and the rules materialized on every call, as for an
unprepared query.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, Optional

from ..logic.engine import Goal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.planner import QueryPlan

#: query shapes one FSM keeps prepared
PREPARED_SHAPES = 128


class PreparedQuery:
    """One query shape: its plan and its compiled goal.

    Entries are shared by every thread querying the shape; neither part
    is written after the entry is built.
    """

    __slots__ = ("plan", "goal")

    def __init__(self, plan: Optional["QueryPlan"], goal: Goal) -> None:
        #: the shape's plan (bound per call), None when nothing plans
        self.plan = plan
        self.goal = goal


class PreparedShapes:
    """An LRU of at most :data:`PREPARED_SHAPES` :class:`PreparedQuery`
    entries."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, PreparedQuery]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[PreparedQuery]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, entry: PreparedQuery) -> None:
        with self._lock:
            self._entries[key] = entry
            while len(self._entries) > PREPARED_SHAPES:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)
