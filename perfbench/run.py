"""Benchmark of the federation's query path; see perfbench/README.md.

    python3 perfbench/run.py --workload warm-read --seed 1 --seconds 10 --trace 0

Runs one workload in a fresh child process whose ``PYTHONHASHSEED`` is
derived from the seed, checks every answer against a runtime-free
reference federation, and prints the metrics; the last line of standard
output is one JSON object.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
The exit code is 0 only when the run completed and every answer was
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "_work"
#: the child must finish well inside the 180 s a run may take
CHILD_TIMEOUT_S = 170.0
#: bulk rows per person (persons per schema: see workloads.WORKLOADS)
RECORDS = 4
#: set-ups per untraced run; setup_s is their median
SETUPS = 5
#: the tail is the highest percentile with this many samples beyond it,
#: estimated as the mean of the order statistics within TAIL_WINDOW
#: ranks of it
TAIL_BEYOND = 10
TAIL_WINDOW = 5

WORKLOAD_NAMES = ("warm-read", "cold-scan", "mixed-rw", "service-open")


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a smaller federation for the self-test (0: the workload's own size)
    parser.add_argument("--people", type=int, default=0, help=argparse.SUPPRESS)
    # perturb the reference, to show the correctness check fails
    parser.add_argument(
        "--corrupt-reference", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def hash_seed(workload: str, seed: int) -> int:
    """PYTHONHASHSEED of the child: a fixed function of workload and seed."""
    return (seed * 2654435761 + WORKLOAD_NAMES.index(workload)) % 4294967296


# ----------------------------------------------------------------------
# parent: one fresh child per run
# ----------------------------------------------------------------------
def spawn(arguments: argparse.Namespace, argv: Sequence[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(arguments.workload, arguments.seed))
    env["PYTHONPATH"] = str(ROOT / "src")
    # sqlite and tempfile spill files stay inside the checkout
    WORK.mkdir(parents=True, exist_ok=True)
    env["SQLITE_TMPDIR"] = env["TMPDIR"] = str(WORK)
    command = [sys.executable, str(Path(__file__).resolve()), "--child", *argv]
    try:
        child = subprocess.run(
            command,
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        stderr = error.stderr or b""
        sys.stderr.write(stderr.decode() if isinstance(stderr, bytes) else stderr)
        print(f"error: run exceeded {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return 1
    sys.stderr.write(child.stderr)
    lines = child.stdout.splitlines()
    if not lines or not _is_result(lines[-1]):
        sys.stderr.write(child.stdout)
        print(f"error: run failed (exit {child.returncode})", file=sys.stderr)
        return child.returncode or 1
    sys.stdout.write(child.stdout)
    return child.returncode


def _is_result(line: str) -> bool:
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return isinstance(result, dict) and set(result) == {
        "correct",
        "attempted",
        "failed",
        "metrics",
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND
    samples beyond it, p = 100 * (n - TAIL_BEYOND) / n.

    The value is the mean of the 2 * TAIL_WINDOW + 1 order statistics
    centred on rank n - TAIL_BEYOND: a single order statistic this far
    out moved by 20% between runs of the same code, the mean by 6%.
    Below 2 * TAIL_BEYOND samples no such percentile is above the
    median, and the median is reported.
    """
    ordered = sorted(samples)
    if len(ordered) < 2 * TAIL_BEYOND:
        return 50.0, statistics.median(ordered)
    rank = len(ordered) - TAIL_BEYOND
    window = ordered[rank - 1 - TAIL_WINDOW : rank + TAIL_WINDOW]
    return 100.0 * rank / len(ordered), statistics.mean(window)


def _median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


# ----------------------------------------------------------------------
# child: set up, measure, check
# ----------------------------------------------------------------------
def child(arguments: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT))
    import gc

    from perfbench.hostspeed import Clock
    from perfbench.reference import check_session, check_sources
    from perfbench.tracing import Tracer, install_layers
    from perfbench.workloads import WORKLOADS, ServiceSystem
    from repro.service.tenancy import TenantConfig, build_session
    from repro.workloads.source_scenarios import (
        generate_source_federation,
        write_source_directory,
    )

    workload = WORKLOADS[arguments.workload]
    if workload.one_cpu and hasattr(os, "sched_setaffinity"):
        # before any thread starts: every thread inherits the affinity
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    phases = {"start": time.perf_counter()}
    dataset = generate_source_federation(
        arguments.people or workload.people, RECORDS, seed=arguments.seed
    )
    work = WORK / f"{arguments.workload}-{arguments.seed}-{os.getpid()}"
    tracer = Tracer() if arguments.trace else None
    setup_spans: Dict[str, List[float]] = {}
    setups: List[float] = []
    raw_setups: List[float] = []
    system: Any = None
    try:
        write_source_directory(dataset, work, kinds="sqlite")
        phases["generate"] = time.perf_counter()
        clock = Clock()
        for _ in range(1 if tracer is not None else SETUPS):
            if system is not None:
                system.close()
                system = None
                gc.collect()
            if tracer is not None:
                install_layers(tracer)
            raw, normalized = clock.total_raw, clock.total
            try:
                system = workload.build(work, dataset, clock)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            setups.append(clock.total - normalized)
            raw_setups.append(clock.total_raw - raw)
        if tracer is not None:
            setup_spans = dict(tracer.spans)
            tracer.reset()
        phases["set-up"] = time.perf_counter()
        window = workload.measure(
            system, arguments.seed, dataset, arguments.seconds, tracer
        )
        phases["window"] = time.perf_counter()
        warmup_s = system.warmup_s
    finally:
        if system is not None:
            system.close()
        shutil.rmtree(work, ignore_errors=True)

    problems: List[str] = []
    for tenant, answers in window.answers.items():
        if tenant == ServiceSystem.SMALL:
            reference = build_session(TenantConfig(name="reference", demo="cluster"))
            problems += check_session(reference, answers, tenant)
        else:
            problems += check_sources(
                dataset, answers, window.writes, arguments.corrupt_reference, tenant
            )
    for problem in problems[:10]:
        print(problem, file=sys.stderr)
    for error in window.errors:
        print(f"failed operation: {error}", file=sys.stderr)
    phases["check"] = time.perf_counter()

    if tracer is None:
        metrics, notes = end_to_end(window, setups, raw_setups)
    else:
        metrics, notes = per_layer(tracer, setup_spans, window, warmup_s)
    print(f"workload {arguments.workload}  seed {arguments.seed}  trace {arguments.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.4f} {unit:<12} {notes.get(name, '')}")
    for name, text in notes.items():
        if name not in metrics:
            print(f"  {name:<32} {text}")
    print(f"  answers checked: {sum(len(a) for a in window.answers.values())}, "
          f"wrong: {len(problems)}")
    marks = list(phases.items())
    print("  run phases: " + ", ".join(
        f"{name} {end - begin:.2f} s"
        for (_, begin), (name, end) in zip(marks, marks[1:])
    ))
    result = {
        "correct": not problems,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def end_to_end(
    window: Any, setups: Sequence[float], raw_setups: Sequence[float]
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, str]]:
    """The end-to-end metrics; times at the nominal host speed, with the
    wall-clock figures beside them in the notes."""
    reads = window.reads_ms
    if not reads:
        raise RuntimeError("no read completed in the measured window")
    tail_p, tail_ms = tail(reads)
    attempted = max(1, window.attempted)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "query_p50_ms": (statistics.median(reads), "ms"),
        "query_tail_ms": (tail_ms, "ms"),
        "throughput_qps": (window.completed_reads / window.busy_s, "1/s"),
        "rss_peak_mb": (window.rss_peak_mb, "MB"),
        "success_ratio": (1.0 - window.failed / attempted, "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; wall {statistics.median(raw_setups):.4f} s",
        "query_p50_ms": f"{len(reads)} reads; wall {statistics.median(window.raw_reads_ms):.4f} ms",
        "query_tail_ms": f"p{tail_p:.1f} of {len(reads)} reads; wall {tail(window.raw_reads_ms)[1]:.4f} ms",
        "throughput_qps": f"wall {window.completed_reads / window.raw_busy_s:.4f} 1/s",
        "failed_ratio": f"{window.failed / attempted:.4f} ({window.failed} of {window.attempted})",
    }
    if window.fresh_ms:
        notes["fresh_read_p50_ms"] = (
            f"{_median(window.fresh_ms):.4f} ms, first read after each of "
            f"{len(window.fresh_ms)} writes"
        )
        notes["write_p50_ms"] = (
            f"{_median(window.writes_ms):.4f} ms, {len(window.writes_ms)} writes"
        )
    if window.small_ms:
        small_p, small_ms = tail(window.small_ms)
        notes["fast_tenant_tail_ms"] = (
            f"{small_ms:.4f} ms, p{small_p:.1f} of {len(window.small_ms)} cluster requests"
        )
        notes["generator_late_p50_ms"] = f"{_median(window.late_ms):.4f} ms (wall)"
    return metrics, notes


def per_layer(
    tracer: Any, setup_spans: Dict[str, List[float]], window: Any, warmup_s: float
) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, str]]:
    from perfbench.tracing import ROOT_SPAN

    spans = tracer.spans
    counts = tracer.counts
    counters = window.counters

    def span(name: str) -> Tuple[int, float, float]:
        calls, wall, own = spans.get(name, (0, 0.0, 0.0))
        return int(calls), wall, own

    queries = span(ROOT_SPAN)[0]
    per_query = max(1, queries)

    def self_ms(name: str) -> float:
        return span(name)[2] * 1000.0 / per_query

    def mean_ms(name: str) -> float:
        calls, _, own = span(name)
        return own * 1000.0 / calls if calls else 0.0

    def counter(name: str) -> float:
        return counters.get(name, 0) / per_query

    lifted = counts.get("facts_lifted", 0.0)
    scanned = counts.get("instances_scanned", 0.0)
    busy_s = span("sources.scan")[2]
    lookups = counters.get("cache_hits", 0) + counters.get("cache_misses", 0)
    _, root_wall, root_self = span(ROOT_SPAN)
    overhead_pct = 0.0
    if window.reads_ms and window.traced_reads_ms:
        overhead_pct = 100.0 * (
            statistics.median(window.traced_reads_ms) / statistics.median(window.reads_ms)
            - 1.0
        )
    http_overhead_ms = 0.0
    if window.traced_client_ms:
        server_ms = 1000.0 * (
            span("service.queue_wait")[1] + span("service.repository")[1]
        )
        http_overhead_ms = (sum(window.traced_client_ms) - server_ms) / len(
            window.traced_client_ms
        )
    ms, count, ratio = "ms", "count/query", "ratio"
    metrics = {
        "federation.parse_ms": (self_ms("federation.parse"), ms),
        "federation.lift_ms": (self_ms("federation.lift"), ms),
        "federation.facts_lifted": (lifted / per_query, count),
        "federation.lift_useful_ratio": (
            counts.get("facts_useful", 0.0) / lifted if lifted else 0.0,
            ratio,
        ),
        "logic.materialize_ms": (self_ms("logic.materialize"), ms),
        "logic.facts_derived": (counts.get("facts_derived", 0.0) / per_query, count),
        "logic.solve_ms": (self_ms("logic.solve"), ms),
        "runtime.plan_ms": (self_ms("runtime.plan"), ms),
        "runtime.scan_ms": (self_ms("runtime.scan"), ms),
        "runtime.stats_ms": (self_ms("runtime.stats"), ms),
        "runtime.agent_scans": (counter("agent_scans"), count),
        "runtime.round_trips": (counter("round_trips"), count),
        "runtime.cache_hit_ratio": (
            counters.get("cache_hits", 0) / lookups if lookups else 0.0,
            ratio,
        ),
        "runtime.granules_patched": (counter("granules_patched"), count),
        "runtime.fallback_invalidations": (counter("fallback_granules"), count),
        "runtime.retries": (counter("retries"), count),
        "runtime.scan_failures": (counter("scan_failures"), count),
        "runtime.pruned_classes": (counter("pruned_classes"), count),
        "runtime.warmup_ms": (warmup_s * 1000.0, ms),
        "sources.open_ms": (setup_spans.get("sources.open", (0, 0.0, 0.0))[1] * 1000.0, ms),
        "sources.busy_ms": (busy_s * 1000.0 / per_query, ms),
        "sources.instances_scanned": (scanned / per_query, count),
        "sources.instances_per_s": (scanned / busy_s if busy_s else 0.0, "1/s"),
        "sources.write_ms": (mean_ms("sources.write"), ms),
        "integration.integrate_ms": (
            setup_spans.get("integration.integrate", (0, 0.0, 0.0))[1] * 1000.0,
            ms,
        ),
        "service.queue_wait_ms": (mean_ms("service.queue_wait"), ms),
        "service.repository_ms": (mean_ms("service.repository"), ms),
        "service.serialize_ms": (mean_ms("service.serialize"), ms),
        "service.http_overhead_ms": (http_overhead_ms, ms),
        "service.generator_late_ms": (_mean(window.traced_late_ms), ms),
        "trace.unattributed_pct": (
            100.0 * root_self / root_wall if root_wall else 0.0,
            "%",
        ),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
    notes = {
        "trace.overhead_pct": (
            f"p50 of {len(window.traced_reads_ms)} traced vs "
            f"{len(window.reads_ms)} untraced reads"
        ),
        "trace.queries": f"{queries} traced queries (per-query denominators)",
    }
    return metrics, notes


def _mean(samples: Sequence[float]) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def main(argv: Sequence[str]) -> int:
    arguments = parse_args(argv)
    if arguments.child:
        return child(arguments)
    return spawn(arguments, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
