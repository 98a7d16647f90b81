"""Runtime metrics: counters, phase timers, per-agent access histograms.

The paper's autonomy argument is *counted* — the FSM only ever fetches
single concept extensions from agents (§3, Appendix B) — and the
ROADMAP's heavy-traffic goal needs the hot path visible.  This module
makes both observable: a thread-safe :class:`RuntimeMetrics` collector
the executor and cache write into, and an immutable :class:`RuntimeStats`
snapshot with delta arithmetic (``after - before``) so callers can
attribute counts to a single query.

Counter vocabulary (all monotonic):

``requests``            scans asked of the runtime
``cache_hits`` / ``cache_misses``   extent-cache outcomes
``agent_scans``         granules that reached the transport
``round_trips``         dispatches on the wire (a coalesced batch of N
                        granules is N ``agent_scans`` but 1 round-trip;
                        unplanned traffic has the two counters equal)
``retries``             re-attempts after a failure
``transport_failures`` / ``timeouts``   failed attempts by kind
``breaker_trips``       circuits opened
``circuit_rejections``  calls fast-failed while a circuit was open
``scan_failures``       scans that exhausted retries
``partial_results``     fan-outs degraded to partial answers
``sharded_scans``       logical scans answered by scatter/merge
``missing_shards``      shard slices absent from a merged answer
``cache_restores``      entries reloaded from a persistent extent store
``planned_queries``     queries the planner pruned/coalesced
``pruned_classes``      integrated classes skipped by query-time pruning
``scans_narrowed``      extent scans that carried a planner selection, so
                        their store materialized only possible matches
                        (cache-off runtimes only; never cached)
``lost_granules``       granules lost when their batch's dispatch failed
``deltas_applied``      delta-feed version steps replayed into the cache
``granules_patched``    cache entries patched in place by delta chains
``fallback_invalidations``  entries evicted because a delta chain could
                        not patch them (gap / rescan marker) —
                        targeted eviction, never a full bump
``lift_slices_built`` / ``lift_slices_reused``  lifted fact slices built
                        from a cached extent, or served from its entry
``lift_slices_patched`` slices a delta chain republished as patched
                        copies (lifting only the instances it touched)
                        instead of dropping them
``lift_slices_dropped`` slice maps dropped with their cache entry's value:
                        a replacing fill, a stale eviction, a fallback
                        eviction of a delta sync, an explicit
                        invalidation or clear, a generation bump, or a
                        re-lift under a new mapping/schema context

Timer vocabulary includes the ``persistence`` phase: every persistent
extent-store interaction (the warm-restart reload, spills on fill,
write-through invalidations) accumulates there, so the disk tier's cost
is visible next to ``fan_out`` and ``query``.

Five counters are also broken down by label in one
``labelled[histogram][label]`` map (:data:`HISTOGRAMS`): scans and
round trips per endpoint, lost and fallback-evicted granules by
description, and missing shards by ``agent#index/of`` endpoint — the
exact account the partial failure policy promises.  :class:`RuntimeStats`
exposes each as a read-only attribute (``stats.missing_shards``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, NamedTuple, Optional, Tuple


class TimerStats(NamedTuple):
    """Aggregate wall-clock of one phase."""

    count: int
    total: float
    max: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


#: the labelled histograms, in report order: name -> (the counter each
#: record also bumps, the ``describe()`` heading)
HISTOGRAMS: Dict[str, Tuple[str, str]] = {
    # granules that reached the transport, per endpoint
    "agent_scans": ("agent_scans", "agent scans"),
    # wire dispatches per endpoint — the planner's coalescing win shows
    # as this histogram dropping below agent_scans
    "agent_round_trips": ("round_trips", "agent round-trips"),
    # granule descriptions lost to failed coalesced dispatches
    "lost_granules": ("lost_granules", "lost granules"),
    # granule descriptions evicted because a delta chain could not
    # patch them — exactly which entries a broken feed forced to rescan
    "fallback_invalidations": ("fallback_invalidations", "fallback invalidations"),
    # shard endpoints absent from merged answers
    "missing_shards": ("missing_shards", "missing shards"),
}


def _delta(now: Mapping[str, int], before: Mapping[str, int]) -> Dict[str, int]:
    """``now - before`` per key, dropping keys that did not move."""
    moved = {key: value - before.get(key, 0) for key, value in now.items()}
    return {key: value for key, value in moved.items() if value}


def _histogram(name: str) -> property:
    return property(lambda stats: stats.labelled[name], doc=f"the {name} histogram")


class RuntimeStats:
    """An immutable snapshot of the collector; supports ``a - b`` deltas."""

    def __init__(
        self,
        counters: Mapping[str, int],
        timers: Mapping[str, TimerStats],
        labelled: Optional[Mapping[str, Mapping[str, int]]] = None,
    ) -> None:
        self.counters: Dict[str, int] = dict(counters)
        self.timers: Dict[str, TimerStats] = dict(timers)
        #: histogram name (see :data:`HISTOGRAMS`) -> label -> count
        self.labelled: Dict[str, Dict[str, int]] = {
            name: dict((labelled or {}).get(name, {})) for name in HISTOGRAMS
        }

    agent_scans = _histogram("agent_scans")
    agent_round_trips = _histogram("agent_round_trips")
    lost_granules = _histogram("lost_granules")
    fallback_invalidations = _histogram("fallback_invalidations")
    missing_shards = _histogram("missing_shards")

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def __sub__(self, earlier: "RuntimeStats") -> "RuntimeStats":
        timers = {}
        for phase, stats in self.timers.items():
            prior = earlier.timers.get(phase, TimerStats(0, 0.0, 0.0))
            delta_total = stats.total - prior.total
            # the true max of just the new samples is unrecoverable from
            # aggregates; their sum bounds it, and so does the overall max
            timers[phase] = TimerStats(
                stats.count - prior.count, delta_total, min(stats.max, delta_total)
            )
        return RuntimeStats(
            _delta(self.counters, earlier.counters),
            {k: v for k, v in timers.items() if v.count},
            {
                name: _delta(values, earlier.labelled[name])
                for name, values in self.labelled.items()
            },
        )

    def describe(self) -> str:
        """A readable report (the CLI's ``--stats`` output)."""
        lines = ["runtime stats:"]
        for name in sorted(self.counters):
            lines.append(f"  {name:<22} {self.counters[name]}")
        for name, (_, heading) in HISTOGRAMS.items():
            values = self.labelled[name]
            if values:
                lines.append(f"  {heading}:")
                lines.extend(f"    {label:<20} {values[label]}" for label in sorted(values))
        if self.timers:
            lines.append("  phases:")
            for phase in sorted(self.timers):
                stats = self.timers[phase]
                lines.append(
                    f"    {phase:<20} n={stats.count}  "
                    f"total={stats.total * 1000:.2f}ms  "
                    f"mean={stats.mean * 1000:.2f}ms  "
                    f"max={stats.max * 1000:.2f}ms"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuntimeStats({self.counters!r}, agents={self.agent_scans!r})"


class RuntimeMetrics:
    """Thread-safe collector the runtime components write into."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._timers: Dict[str, TimerStats] = {}
        self._labelled: Dict[str, Dict[str, int]] = {name: {} for name in HISTOGRAMS}

    # ------------------------------------------------------------------
    def incr(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def record(self, histogram: str, label: str, count: int = 1) -> None:
        """Add *count* to *label* in one of the :data:`HISTOGRAMS`, and to
        the counter that histogram breaks down."""
        counter = HISTOGRAMS[histogram][0]
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + count
            values = self._labelled[histogram]
            values[label] = values.get(label, 0) + count

    def record_agent_scan(self, agent: str, count: int = 1) -> None:
        self.record("agent_scans", agent, count)

    def record_fallback_invalidation(self, description: str) -> None:
        self.record("fallback_invalidations", description)

    def record_phase(self, phase: str, elapsed: float) -> None:
        with self._lock:
            prior = self._timers.get(phase, TimerStats(0, 0.0, 0.0))
            self._timers[phase] = TimerStats(
                prior.count + 1, prior.total + elapsed, max(prior.max, elapsed)
            )

    @contextmanager
    def timer(self, phase: str) -> Iterator[None]:
        """Time a phase: ``with metrics.timer("lift_facts"): ...``."""
        started = self._clock()
        try:
            yield
        finally:
            self.record_phase(phase, self._clock() - started)

    # ------------------------------------------------------------------
    def snapshot(self) -> RuntimeStats:
        with self._lock:
            return RuntimeStats(self._counters, self._timers, self._labelled)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._timers.clear()
            for values in self._labelled.values():
                values.clear()
