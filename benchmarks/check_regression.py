"""Perf-regression gate over ``BENCH_runtime.json`` (CI's last word).

Reads a freshly generated benchmark file and fails (exit 1) when the
federation runtime's load-bearing numbers regress:

* ``concurrent_speedup`` below the absolute floor (default 3.0) — the
  fan-out no longer beats the sequential baseline;
* ``warm_agent_scans`` nonzero — the extent cache leaks scans to agents
  on warm queries (the paper's autonomy accounting breaks);
* in the E-R2 fan-out series, async throughput below threaded
  throughput at the largest scale — the event-loop path lost the very
  property it exists for;
* in the E-R3 sharding series, the widest plan's speedup over the
  1-shard baseline below the floor (default 1.5, both modes) — the
  scatter/merge stopped paying for itself on large extents;
* in the E-R4 restart section, any warm-restart agent scan, a warm
  restart slower than the cold start, or answers diverging from the
  cold run — the persistent extent cache stopped delivering scan-free
  byte-identical warm restarts;
* in the E-R5 service section, fewer than 8 concurrent clients, any
  HTTP error, any warm agent scan, throughput below the req/s floor
  (default 20.0) or a p99 below the p50 — the multi-tenant query
  service stopped serving concurrent warm load from cache;
* in the E-R6 planner section, a missing example federation, planned
  round-trips not strictly below unplanned, or answers diverging — the
  query planner stopped reducing traffic or (worse) changed an answer;
* in the E-R7 sources section, fewer than 100 000 instances, any warm
  agent scan, a scan-free cold run, zero answers, or answers diverging
  from the in-memory federation — the source-adapter layer stopped
  being a transparent ComponentStore over disk-backed components; and
  a warm query not at least 4x faster than the cold one
  (``warm_ms * WARM_SPEEDUP > cold_ms``) — the warm path went back to
  re-lifting and re-copying the facts of cached extents;
* in the E-R8 deltas section, no writes in the mixed load, patched
  agent scans not strictly below the generation-bump baseline's, any
  granule patched on the baseline side, zero granules patched on the
  delta side, or answers diverging — incremental invalidation stopped
  beating rescans or (worse) stopped matching them; and any lifted
  slice built on the delta side in the mixed-load window while
  ``fallback_invalidations`` is 0 — a write relifted a whole slice
  instead of patching it;
* optionally, drift against a committed baseline file: any gated metric
  worse than ``tolerance`` × baseline fails even above absolute floors.

Usage::

    python benchmarks/check_regression.py BENCH_runtime.json \
        --baseline BENCH_baseline.json --min-speedup 3.0 \
        --min-shard-speedup 1.5 --min-service-rps 20.0 --tolerance 0.5
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional


#: E-R7: the cold query must take at least this many times the warm one
WARM_SPEEDUP = 4


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def check(
    fresh: dict,
    baseline: Optional[dict] = None,
    min_speedup: float = 3.0,
    tolerance: float = 0.5,
    min_shard_speedup: float = 1.5,
    min_service_rps: float = 20.0,
) -> List[str]:
    """Return the list of regression messages (empty = gate passes)."""
    problems: List[str] = []

    speedup = fresh.get("concurrent_speedup", 0.0)
    if speedup < min_speedup:
        problems.append(
            f"concurrent_speedup {speedup} is below the {min_speedup} floor "
            "(fan-out no longer beats sequential)"
        )

    warm = fresh.get("warm_agent_scans", -1)
    if warm != 0:
        problems.append(
            f"warm_agent_scans is {warm}, expected 0 "
            "(extent cache leaks scans to agents on warm queries)"
        )

    fanout = fresh.get("fanout", [])
    if not fanout:
        problems.append("fanout series is missing (E-R2 did not run)")
    else:
        largest = max(fanout, key=lambda s: s.get("agents", 0))
        threaded = largest.get("threaded_scans_per_s", 0.0)
        asynchronous = largest.get("async_scans_per_s", 0.0)
        if asynchronous < threaded:
            problems.append(
                f"async throughput {asynchronous} scans/s trails threaded "
                f"{threaded} scans/s at {largest.get('agents')} agents"
            )

    sharding = fresh.get("sharding", [])
    if not sharding:
        problems.append("sharding series is missing (E-R3 did not run)")
    else:
        widest = max(sharding, key=lambda s: s.get("shards", 0))
        if widest.get("shards", 0) <= 1:
            problems.append(
                "sharding series has no multi-shard entry (E-R3 only ran N=1)"
            )
        else:
            for key in ("threaded_speedup_vs_1", "async_speedup_vs_1"):
                ratio = widest.get(key, 0.0)
                if ratio < min_shard_speedup:
                    problems.append(
                        f"{key} {ratio} at {widest.get('shards')} shards is "
                        f"below the {min_shard_speedup} floor "
                        "(scatter/merge no longer beats the unsharded scan)"
                    )

    restart = fresh.get("restart", {})
    if not restart:
        problems.append("restart section is missing (E-R4 did not run)")
    else:
        warm_restart = restart.get("warm_restart_agent_scans", -1)
        if warm_restart != 0:
            problems.append(
                f"warm_restart_agent_scans is {warm_restart}, expected 0 "
                "(persisted cache no longer restores scan-free)"
            )
        if not restart.get("answers_match", False):
            problems.append(
                "restart answers_match is false "
                "(warm restart diverged from the cold run's answers)"
            )
        warm_ms = restart.get("warm_restart_ms", float("inf"))
        cold_ms = restart.get("cold_ms", 0.0)
        if warm_ms >= cold_ms:
            problems.append(
                f"warm_restart_ms {warm_ms} is not below cold_ms {cold_ms} "
                "(restoring the cache no longer beats rescanning)"
            )
        if restart.get("cache_restores", 0) <= 0:
            problems.append(
                "cache_restores is 0 (the warm restart restored nothing, so "
                "its numbers measure an ordinary cold run)"
            )

    service = fresh.get("service", {})
    if not service:
        problems.append("service section is missing (E-R5 did not run)")
    else:
        clients = service.get("clients", 0)
        if clients < 8:
            problems.append(
                f"service ran {clients} concurrent clients, expected >= 8 "
                "(the load test no longer exercises concurrency)"
            )
        errors = service.get("status_errors", -1)
        if errors != 0:
            problems.append(
                f"service status_errors is {errors}, expected 0 "
                "(the query service failed requests under load)"
            )
        service_warm = service.get("warm_agent_scans", -1)
        if service_warm != 0:
            problems.append(
                f"service warm_agent_scans is {service_warm}, expected 0 "
                "(warm service load leaked scans to the tenant's agents)"
            )
        rps = service.get("req_per_s", 0.0)
        if rps < min_service_rps:
            problems.append(
                f"service req_per_s {rps} is below the {min_service_rps} "
                "floor (the HTTP path lost its throughput)"
            )
        p50 = service.get("p50_ms", 0.0)
        p99 = service.get("p99_ms", 0.0)
        if not 0 < p50 <= p99:
            problems.append(
                f"service latencies are inconsistent (p50={p50}, p99={p99})"
            )

    planner = fresh.get("planner", [])
    planner_by_federation = {
        entry.get("federation"): entry for entry in planner
    }
    expected_federations = ("genealogy", "cluster")
    missing = [
        name for name in expected_federations
        if name not in planner_by_federation
    ]
    if missing:
        problems.append(
            f"planner section is missing {', '.join(missing)} "
            "(E-R6 did not cover both example federations)"
        )
    for name in expected_federations:
        entry = planner_by_federation.get(name)
        if entry is None:
            continue
        planned = entry.get("planned_round_trips", 0)
        unplanned = entry.get("unplanned_round_trips", 0)
        if not 0 < planned < unplanned:
            problems.append(
                f"planner round-trips on {name} are {planned} planned vs "
                f"{unplanned} unplanned, expected strictly fewer planned "
                "(scan coalescing stopped reducing traffic)"
            )
        if not entry.get("answers_match", False):
            problems.append(
                f"planner answers_match on {name} is false "
                "(the planned query diverged from the unplanned answers)"
            )

    sources = fresh.get("sources", {})
    if not sources:
        problems.append("sources section is missing (E-R7 did not run)")
    else:
        total = sources.get("total_instances", 0)
        if total < 100_000:
            problems.append(
                f"sources total_instances is {total}, expected >= 100000 "
                "(E-R7 no longer exercises a large-extent federation)"
            )
        sources_warm = sources.get("warm_agent_scans", -1)
        if sources_warm != 0:
            problems.append(
                f"sources warm_agent_scans is {sources_warm}, expected 0 "
                "(warm queries leak scans to the disk-backed adapters)"
            )
        if sources.get("cold_agent_scans", 0) <= 0:
            problems.append(
                "sources cold_agent_scans is 0 (the cold run scanned no "
                "adapter, so E-R7 measured nothing)"
            )
        if sources.get("answers", 0) <= 0:
            problems.append(
                "sources answers is 0 (the benchmark query selected nothing)"
            )
        if not sources.get("answers_match_memory", False):
            problems.append(
                "sources answers_match_memory is false (the sqlite-backed "
                "federation diverged from the in-memory baseline)"
            )
        sources_warm_ms = sources.get("warm_ms", float("inf"))
        sources_cold_ms = sources.get("cold_ms", 0.0)
        if sources_warm_ms * WARM_SPEEDUP > sources_cold_ms:
            problems.append(
                f"sources warm_ms {sources_warm_ms} is not {WARM_SPEEDUP}x below "
                f"cold_ms {sources_cold_ms} (warm queries re-lift cached extents)"
            )

    deltas = fresh.get("deltas", {})
    if not deltas:
        problems.append("deltas section is missing (E-R8 did not run)")
    else:
        if deltas.get("writes", 0) <= 0:
            problems.append(
                "deltas writes is 0 (the mixed load never wrote, so E-R8 "
                "measured an ordinary warm-cache run)"
            )
        patched = deltas.get("patched_agent_scans", -1)
        bump = deltas.get("bump_agent_scans", 0)
        if not 0 <= patched < bump:
            problems.append(
                f"deltas agent scans are {patched} patched vs {bump} bumped, "
                "expected strictly fewer patched "
                "(delta patching no longer beats rescan-on-write)"
            )
        if deltas.get("granules_patched", 0) <= 0:
            problems.append(
                "deltas granules_patched is 0 (the delta side patched "
                "nothing, so E-R8 compared two rescan baselines)"
            )
        if deltas.get("baseline_granules_patched", 0) != 0:
            problems.append(
                "deltas baseline_granules_patched is nonzero "
                "(the deltas=false baseline patched granules, so the "
                "comparison no longer isolates the feature)"
            )
        if not deltas.get("answers_match", False):
            problems.append(
                "deltas answers_match is false (the patched run diverged "
                "from the rescan baseline's answers)"
            )
        built = deltas.get("lift_slices_built", 0)
        if deltas.get("fallback_invalidations", 0) == 0 and built != 0:
            problems.append(
                f"deltas lift_slices_built is {built} with no fallback "
                "invalidation (a write relifted a slice instead of patching it)"
            )

    if baseline is not None:
        base_speedup = baseline.get("concurrent_speedup", 0.0)
        if base_speedup > 0 and speedup < base_speedup * tolerance:
            problems.append(
                f"concurrent_speedup {speedup} fell below {tolerance:.0%} of "
                f"the committed baseline ({base_speedup})"
            )
        base_fanout = {
            s["agents"]: s for s in baseline.get("fanout", []) if "agents" in s
        }
        for series in fanout:
            base = base_fanout.get(series.get("agents"))
            if base is None:
                continue
            fresh_tp = series.get("async_scans_per_s", 0.0)
            base_tp = base.get("async_scans_per_s", 0.0)
            if base_tp > 0 and fresh_tp < base_tp * tolerance:
                problems.append(
                    f"async throughput at {series['agents']} agents "
                    f"({fresh_tp} scans/s) fell below {tolerance:.0%} of the "
                    f"committed baseline ({base_tp} scans/s)"
                )
        base_sharding = {
            s["shards"]: s for s in baseline.get("sharding", []) if "shards" in s
        }
        for series in sharding:
            base = base_sharding.get(series.get("shards"))
            if base is None or series.get("shards", 0) <= 1:
                continue
            for key in ("threaded_speedup_vs_1", "async_speedup_vs_1"):
                fresh_ratio = series.get(key, 0.0)
                base_ratio = base.get(key, 0.0)
                if base_ratio > 0 and fresh_ratio < base_ratio * tolerance:
                    problems.append(
                        f"{key} at {series['shards']} shards ({fresh_ratio}) "
                        f"fell below {tolerance:.0%} of the committed "
                        f"baseline ({base_ratio})"
                    )
        base_service = baseline.get("service", {})
        base_rps = base_service.get("req_per_s", 0.0)
        fresh_rps = service.get("req_per_s", 0.0) if service else 0.0
        if base_rps > 0 and fresh_rps < base_rps * tolerance:
            problems.append(
                f"service req_per_s {fresh_rps} fell below {tolerance:.0%} of "
                f"the committed baseline ({base_rps})"
            )
        base_sources = baseline.get("sources", {})
        base_scan = base_sources.get("scan_instances_per_s", 0.0)
        fresh_scan = sources.get("scan_instances_per_s", 0.0) if sources else 0.0
        if base_scan > 0 and fresh_scan < base_scan * tolerance:
            problems.append(
                f"sources scan_instances_per_s {fresh_scan} fell below "
                f"{tolerance:.0%} of the committed baseline ({base_scan}) "
                "— the adapter scan path lost its throughput"
            )
        base_planner = {
            entry.get("federation"): entry
            for entry in baseline.get("planner", [])
        }
        for entry in planner:
            base = base_planner.get(entry.get("federation"))
            if base is None:
                continue
            # round-trip counts are deterministic — any increase is drift
            fresh_trips = entry.get("planned_round_trips", 0)
            base_trips = base.get("planned_round_trips", 0)
            if base_trips > 0 and fresh_trips > base_trips:
                problems.append(
                    f"planner round-trips on {entry.get('federation')} rose "
                    f"to {fresh_trips} from the committed baseline "
                    f"({base_trips}) — coalescing or pruning regressed"
                )
            fresh_ratio = entry.get("round_trip_reduction", 0.0)
            base_ratio = base.get("round_trip_reduction", 0.0)
            if base_ratio > 0 and fresh_ratio < base_ratio * tolerance:
                problems.append(
                    f"planner round_trip_reduction on "
                    f"{entry.get('federation')} ({fresh_ratio}) fell below "
                    f"{tolerance:.0%} of the committed baseline ({base_ratio})"
                )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail CI when BENCH_runtime.json regresses"
    )
    parser.add_argument(
        "fresh",
        nargs="?",
        default="BENCH_runtime.json",
        help="freshly generated benchmark file (default: BENCH_runtime.json)",
    )
    parser.add_argument(
        "--baseline",
        help="committed baseline benchmark file to diff against (optional)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="absolute concurrent_speedup floor (default: 3.0)",
    )
    parser.add_argument(
        "--min-shard-speedup",
        type=float,
        default=1.5,
        help="absolute shard speedup-vs-1 floor at the widest plan "
        "(default: 1.5)",
    )
    parser.add_argument(
        "--min-service-rps",
        type=float,
        default=20.0,
        help="absolute warm service throughput floor in req/s (default: 20.0)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="fraction of the baseline a metric may drop to (default: 0.5)",
    )
    arguments = parser.parse_args(argv)

    try:
        fresh = _load(arguments.fresh)
    except (OSError, json.JSONDecodeError) as error:
        print(f"regression gate: cannot read {arguments.fresh}: {error}")
        return 1
    baseline = None
    if arguments.baseline:
        try:
            baseline = _load(arguments.baseline)
        except (OSError, json.JSONDecodeError) as error:
            print(f"regression gate: cannot read baseline: {error}")
            return 1

    problems = check(
        fresh,
        baseline,
        arguments.min_speedup,
        arguments.tolerance,
        arguments.min_shard_speedup,
        arguments.min_service_rps,
    )
    if problems:
        print("regression gate FAILED:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    fanout = fresh.get("fanout", [])
    largest = max(fanout, key=lambda s: s.get("agents", 0)) if fanout else {}
    sharding = fresh.get("sharding", [])
    widest = max(sharding, key=lambda s: s.get("shards", 0)) if sharding else {}
    restart = fresh.get("restart", {})
    service = fresh.get("service", {})
    planner = fresh.get("planner", [])
    sources = fresh.get("sources", {})
    deltas = fresh.get("deltas", {})
    planner_summary = " ".join(
        f"planner[{entry.get('federation', '?')}]="
        f"{entry.get('planned_round_trips', '?')}/"
        f"{entry.get('unplanned_round_trips', '?')} trips"
        for entry in planner
    )
    print(
        "regression gate passed: "
        f"concurrent_speedup={fresh.get('concurrent_speedup')} "
        f"warm_agent_scans={fresh.get('warm_agent_scans')} "
        f"async@{largest.get('agents', '?')}="
        f"{largest.get('async_scans_per_s', '?')} scans/s "
        f"shard@{widest.get('shards', '?')}="
        f"{widest.get('threaded_speedup_vs_1', '?')}x/"
        f"{widest.get('async_speedup_vs_1', '?')}x "
        f"restart={restart.get('warm_restart_ms', '?')}ms/"
        f"{restart.get('warm_restart_agent_scans', '?')} scans "
        f"service={service.get('req_per_s', '?')} req/s "
        f"p99={service.get('p99_ms', '?')}ms "
        f"sources={sources.get('total_instances', '?')} instances/"
        f"{sources.get('scan_instances_per_s', '?')} scan-rows/s "
        f"deltas={deltas.get('patched_agent_scans', '?')}/"
        f"{deltas.get('bump_agent_scans', '?')} scans "
        + planner_summary
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
