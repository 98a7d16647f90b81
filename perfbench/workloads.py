"""The four workloads: inputs, set-up and the measured loops.

All inputs come from the workload seed.  The federation is
``generate_source_federation(people, records, seed)``: three component
schemas (university, hospital, market), each with a ``person`` class, a
lookup relation and a bulk relation, materialized as sqlite files.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import random
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from .hostspeed import Clock
from .reference import Write, digest
from .tracing import Tracer, install_layers

#: bulk relation of each schema: (relation, text column, number column);
#: the text column holds ``<column><0..63>``
BULK = {
    "university": ("enrollment", "course", "mark"),
    "hospital": ("visit", "day", "cost"),
    "market": ("trade", "symbol", "qty"),
}
#: how each schema stores a person's level (see source_scenarios)
LEVEL_COLUMN = {"university": "level", "hospital": "lvl", "market": "level_bp"}
#: reads per write on mixed-rw (9 reads + 1 write = 10% writes)
READS_PER_WRITE = 9
#: service-open offered rates, requests per second: the two tenants
#: together keep the one CPU about 40% busy, so a slower host does not
#: build a queue.  At 15 and 12 req/s the tail (ten samples beyond it)
#: sat where requests hit by a full garbage collection thin out, and
#: spread 8-12% between runs of the same code; at these rates 5-7%.
LARGE_RATE = 22.5
SMALL_RATE = 18.0
#: least seconds between two calibrations of one open-loop client
CALIBRATE_EVERY_S = 0.25
#: marks an open-loop client keeps (three per request), enough to reach
#: back to the due time of a request queued behind a few others
TIMELINE_MARKS = 32
#: client-side timeout of one service request
REQUEST_TIMEOUT_S = 30.0


def encode_level(schema: str, level: int) -> Any:
    if schema == "hospital":
        return f"L{level}"
    if schema == "market":
        return level * 100
    return level


def workers() -> int:
    """Scan workers: two, never more than the CPUs this process may use."""
    import os

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )
    return max(1, min(2, cpus))


# ----------------------------------------------------------------------
# query mixes
# ----------------------------------------------------------------------
def source_round(rng: random.Random, people: int) -> List[str]:
    """One round of the read mix: one query of each of five selective
    templates, in seeded order — every round does the same kinds of work."""
    schema = rng.choice(("university", "hospital", "market"))
    queries = [
        f"person(level={rng.randint(1, 5)}) -> ssn, name",
        f"person(ssn='{schema}-{rng.randrange(people)}') -> name, level",
    ]
    for relation, text, number in BULK.values():
        queries.append(
            f"{relation}({text}='{text}{rng.randrange(64)}') -> {number}, person_ssn"
        )
    rng.shuffle(queries)
    return queries


def cluster_query(rng: random.Random) -> str:
    """A query for the ``demo=cluster`` tenant (4 schemas x 8 people)."""
    shape = rng.randrange(2)
    if rng.random() < 0.5:
        return f"person{shape}(grade={rng.randint(1, 5)}) -> ssn#, name"
    return (
        f"person{shape}(ssn#='S{rng.randint(1, 4)}-{shape}-{rng.randrange(8)}') "
        f"-> name, grade"
    )


#: set-up warm-up: one query per class the read mix touches
WARMUP = [
    "person(level=1) -> ssn, name",
    *(
        f"{relation}({text}='{text}0') -> {number}, person_ssn"
        for relation, text, number in BULK.values()
    ),
]
CLUSTER_WARMUP = ["person0(grade=1) -> ssn#, name", "person1(grade=1) -> ssn#, name"]


def make_write(rng: random.Random, index: int, people: int, next_id: Dict[str, int]) -> Tuple[Write, str]:
    """The *index*-th write of mixed-rw and the read that must see it.

    Even writes insert a bulk row, odd ones move a person's level; the
    schema rotates.  Both are patchable by the delta feed.
    """
    schema = ("university", "hospital", "market")[(index // 2) % 3]
    if index % 2 == 0:
        relation, text, number = BULK[schema]
        next_id[schema] += 1
        row = {
            "id": next_id[schema],
            "person_ssn": f"{schema}-{rng.randrange(people)}",
            text: f"{text}{rng.randrange(64)}",
            number: rng.randint(0, 500),
        }
        fresh = f"{relation}({text}='{row[text]}') -> {number}, person_ssn"
        return Write("insert", schema, relation, 0, row), fresh
    level = rng.randint(1, 5)
    write = Write(
        "update",
        schema,
        "person",
        rng.randrange(people) + 1,
        {LEVEL_COLUMN[schema]: encode_level(schema, level)},
    )
    return write, f"person(level={level}) -> ssn, name"


# ----------------------------------------------------------------------
# measurements of one run
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Window:
    """Observations of the measured window.  Latencies are normalized to
    the nominal host speed (see hostspeed.py) unless named ``raw``."""

    reads_ms: List[float] = dataclasses.field(default_factory=list)
    raw_reads_ms: List[float] = dataclasses.field(default_factory=list)
    traced_reads_ms: List[float] = dataclasses.field(default_factory=list)
    fresh_ms: List[float] = dataclasses.field(default_factory=list)
    writes_ms: List[float] = dataclasses.field(default_factory=list)
    small_ms: List[float] = dataclasses.field(default_factory=list)
    #: how late the open-loop generator sent, wall time
    late_ms: List[float] = dataclasses.field(default_factory=list)
    #: wall-time client latency of requests sent while tracing
    traced_client_ms: List[float] = dataclasses.field(default_factory=list)
    traced_late_ms: List[float] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    completed_reads: int = 0
    #: seconds the operations took, normalized and wall (closed loops:
    #: without the calibrations between them; open loop: the window)
    busy_s: float = 0.0
    raw_busy_s: float = 0.0
    #: the first few exceptions of failed operations
    errors: List[str] = dataclasses.field(default_factory=list)
    rss_peak_mb: float = 0.0
    #: (epoch, query, digest, rows) per answered read, per tenant
    answers: Dict[str, List[Tuple[int, str, str, int]]] = dataclasses.field(
        default_factory=dict
    )
    writes: List[Write] = dataclasses.field(default_factory=list)
    #: runtime counters summed over the traced part of the window
    counters: Dict[str, float] = dataclasses.field(default_factory=dict)

    def answer(self, tenant: str, epoch: int, text: str, rows: Any) -> None:
        answer, count = digest(rows)
        self.answers.setdefault(tenant, []).append((epoch, text, answer, count))

    def fail(self, error: BaseException) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(error).__name__}: {error}")


def rss_peak_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def add_counters(window: Window, before: Any, after: Any) -> None:
    delta = after - before
    for name, value in delta.counters.items():
        window.counters[name] = window.counters.get(name, 0) + value
    fallbacks = sum(delta.fallback_invalidations.values())
    window.counters["fallback_granules"] = (
        window.counters.get("fallback_granules", 0) + fallbacks
    )


# ----------------------------------------------------------------------
# the sqlite federation (warm-read, cold-scan, mixed-rw)
# ----------------------------------------------------------------------
class SourceSystem:
    """An opened, integrated, runtime-attached sqlite federation."""

    def __init__(self, root: Path, dataset: Any, cache: bool, clock: Clock) -> None:
        import repro.sources as sources
        from repro.runtime import RuntimePolicy, ShardPlan
        from repro.workloads.source_scenarios import source_fsm

        with clock.piece():
            _, self.databases = sources.load_source_federation(root)
            self.fsm = source_fsm(self.databases, dataset.assertions)
            self.fsm.integrate_all()
            if cache:
                self.runtime = self.fsm.use_runtime(
                    RuntimePolicy(max_workers=workers())
                )
            else:
                self.runtime = self.fsm.use_runtime(
                    RuntimePolicy(max_workers=workers(), cache_enabled=False),
                    shard_plan=ShardPlan(4, "hash"),
                )
        self.warmup_s = 0.0
        for text in WARMUP:
            with clock.piece():
                self.fsm.query(text)
            self.warmup_s += clock.last_raw

    def close(self) -> None:
        self.runtime.close()


def closed_loop(
    system: SourceSystem,
    seed: int,
    dataset: Any,
    seconds: float,
    writes: bool,
    tracer: Optional[Tracer],
) -> Window:
    """One closed-loop client.  Rounds are five reads (warm-read,
    cold-scan) or a write, the read that must see it and eight more
    reads (mixed-rw).  With a *tracer*, every second round is traced."""
    rng = random.Random(seed * 7919 + 1)
    window = Window()
    people = dataset.people_per_schema
    next_id = {schema: people * dataset.records_per_person for schema in BULK}
    pending: List[str] = []
    epoch = 0
    write_index = 0
    round_index = 0
    clock = Clock()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        traced = tracer is not None and round_index % 2 == 1
        ops: List[Tuple[str, Any]] = []
        if writes:
            write, fresh = make_write(rng, write_index, people, next_id)
            write_index += 1
            ops.append(("write", write))
            ops.append(("fresh", fresh))
            while len(ops) < READS_PER_WRITE + 1:
                if not pending:
                    pending = source_round(rng, people)
                ops.append(("read", pending.pop()))
        else:
            ops = [("read", text) for text in source_round(rng, people)]
        if traced:
            before = system.runtime.stats()
            install_layers(tracer)
        try:
            for kind, payload in ops:
                if time.perf_counter() >= deadline:
                    break
                window.attempted += 1
                if kind == "write":
                    try:
                        with clock.piece():
                            payload.apply_sqlite(system.databases)
                    except Exception as error:  # counted and reported, not fatal
                        window.fail(error)
                        continue
                    window.writes_ms.append(clock.last * 1000.0)
                    window.writes.append(payload)
                    epoch += 1
                    continue
                try:
                    with clock.piece():
                        rows = system.fsm.query(payload)
                except Exception as error:
                    window.fail(error)
                    continue
                elapsed_ms = clock.last * 1000.0
                if traced:
                    window.traced_reads_ms.append(elapsed_ms)
                else:
                    window.reads_ms.append(elapsed_ms)
                    window.raw_reads_ms.append(clock.last_raw * 1000.0)
                if kind == "fresh":
                    window.fresh_ms.append(elapsed_ms)
                window.completed_reads += 1
                window.answer("sources", epoch, payload, rows)
        finally:
            if traced:
                tracer.uninstall()
                add_counters(window, before, system.runtime.stats())
        round_index += 1
    window.busy_s, window.raw_busy_s = clock.total, clock.total_raw
    window.rss_peak_mb = rss_peak_mb()
    return window


# ----------------------------------------------------------------------
# service-open
# ----------------------------------------------------------------------
class ServiceSystem:
    """The federation service with a sqlite tenant and a cluster tenant."""

    LARGE = "sources"
    SMALL = "cluster"

    def __init__(self, root: Path, clock: Clock) -> None:
        from repro.service import FederationRepository, create_app
        from repro.service.server import ServerThread
        from repro.service.tenancy import TenantConfig

        self.server: Optional[Any] = None
        self.repository: Optional[Any] = None
        try:
            with clock.piece():
                self.repository = FederationRepository()
                for config in (
                    TenantConfig(
                        name=self.LARGE, source_dir=str(root), max_workers=workers()
                    ),
                    TenantConfig(
                        name=self.SMALL, demo="cluster", max_workers=workers()
                    ),
                ):
                    self.repository.add_tenant(config)
                self.server = ServerThread(create_app(self.repository), port=0).start()
            self.warmup_s = 0.0
            connection = self.connect()
            try:
                for tenant, text in [(self.LARGE, text) for text in WARMUP] + [
                    (self.SMALL, text) for text in CLUSTER_WARMUP
                ]:
                    with clock.piece():
                        self.request(connection, tenant, text)
                    self.warmup_s += clock.last_raw
            finally:
                connection.close()
        except BaseException:
            self.close()
            raise

    def connect(self) -> http.client.HTTPConnection:
        assert self.server is not None
        return http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=REQUEST_TIMEOUT_S
        )

    @staticmethod
    def request(
        connection: http.client.HTTPConnection, tenant: str, text: str
    ) -> List[Dict[str, Any]]:
        """POST one query; its rows, or an error for any non-200 answer."""
        connection.request(
            "POST",
            f"/tenants/{tenant}/query",
            body=json.dumps({"query": text}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"HTTP {response.status}: {body[:200]!r}")
        return json.loads(body)["rows"]

    def runtimes(self) -> List[Any]:
        return [
            self.repository.tenant(name).runtime for name in (self.LARGE, self.SMALL)
        ]

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.repository is not None:
            self.repository.close()


class ProcessTimeline:
    """Maps this thread's wall-clock instants to the process's CPU time.

    service-open runs its whole process, clients and server, on one
    CPU, and the request path has no idle waits (loopback HTTP, sqlite
    pages in memory): on a quiet host the process's CPU time over a
    request is 98% of its wall time.  On a shared host the difference
    is time the CPU ran other processes or other machines' work, which
    moved the wall-clock tail by 25-30% between runs of the same code.
    So open-loop latency is the process's CPU time from a request's due
    time to its answer.  CPU time of every thread counts, so the other
    tenant's work and a backlog behind earlier requests still do.
    """

    def __init__(self) -> None:
        self._marks: List[Tuple[float, float]] = []
        self.mark()

    def mark(self) -> Tuple[float, float]:
        """Record (wall, process CPU) now, and return it."""
        point = (time.perf_counter(), time.process_time())
        self._marks = self._marks[-TIMELINE_MARKS + 1 :] + [point]
        return point

    def cpu_at(self, wall: float) -> float:
        """Process CPU time at *wall*, interpolated between marks."""
        marks = self._marks
        if wall <= marks[0][0]:
            return marks[0][1]
        for (wall0, cpu0), (wall1, cpu1) in zip(marks, marks[1:]):
            if wall <= wall1:
                return cpu0 + (cpu1 - cpu0) * (wall - wall0) / (wall1 - wall0)
        return marks[-1][1]


def _client(
    system: ServiceSystem,
    tenant: str,
    schedule: List[Tuple[float, str]],
    start: float,
    window: Window,
    latencies: List[float],
    raw: List[float],
    late: List[float],
    lock: threading.Lock,
) -> None:
    """Send *schedule* ``(due offset, query)`` on one keep-alive
    connection; latency is the process's CPU time from when each request
    was due to its answer (see ProcessTimeline), normalized by
    calibrations this thread runs after each answer.  *raw* gets the
    wall-clock latency."""
    clock = Clock(CALIBRATE_EVERY_S)
    timeline = ProcessTimeline()
    connection = system.connect()
    try:
        for due_offset, text in schedule:
            due = start + due_offset
            now, _ = timeline.mark()
            if now < due:
                time.sleep(due - now)
            sent, _ = timeline.mark()
            try:
                rows = system.request(connection, tenant, text)
            except (OSError, http.client.HTTPException, RuntimeError, ValueError) as error:
                connection.close()
                connection = system.connect()
                with lock:
                    window.attempted += 1
                    window.fail(error)
                continue
            done, done_cpu = timeline.mark()
            latency = clock.normalize(done_cpu - timeline.cpu_at(due))
            with lock:
                window.attempted += 1
                window.completed_reads += 1
                latencies.append(latency * 1000.0)
                raw.append((done - due) * 1000.0)
                late.append((sent - due) * 1000.0)
                window.answer(tenant, 0, text, rows)
    finally:
        connection.close()


def open_loop(
    system: ServiceSystem,
    seed: int,
    dataset: Any,
    seconds: float,
    tracer: Optional[Tracer],
) -> Window:
    """Two open-loop clients at fixed rates, one per tenant.  With a
    *tracer*, the second half of the window is traced; the first half,
    untraced, gives the overhead baseline."""
    rng = random.Random(seed * 7919 + 2)
    people = dataset.people_per_schema
    window = Window()
    halves = [(seconds, False)] if tracer is None else [
        (seconds / 2.0, False),
        (seconds / 2.0, True),
    ]
    lock = threading.Lock()
    started = time.perf_counter()
    for length, traced in halves:
        large: List[str] = []
        while len(large) < int(LARGE_RATE * length):
            large.extend(source_round(rng, people))
        large_schedule = [
            (index / LARGE_RATE, text)
            for index, text in enumerate(large[: int(LARGE_RATE * length)])
        ]
        small_schedule = [
            ((index + 0.5) / SMALL_RATE, cluster_query(rng))
            for index in range(int(SMALL_RATE * length))
        ]
        large_ms: List[float] = []
        small_ms: List[float] = []
        raw_large: List[float] = []
        raw_small: List[float] = []
        late: List[float] = []
        if traced:
            befores = [runtime.stats() for runtime in system.runtimes()]
            install_layers(tracer)
        try:
            start = time.perf_counter() + 0.05
            threads = [
                threading.Thread(
                    target=_client,
                    args=(system, tenant, schedule, start, window, out, raw, late, lock),
                    name=f"client-{tenant}",
                )
                for tenant, schedule, out, raw in (
                    (system.LARGE, large_schedule, large_ms, raw_large),
                    (system.SMALL, small_schedule, small_ms, raw_small),
                )
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=length + 2 * REQUEST_TIMEOUT_S)
                if thread.is_alive():
                    raise RuntimeError(f"{thread.name} did not finish")
        finally:
            if traced:
                tracer.uninstall()
                for runtime, before in zip(system.runtimes(), befores):
                    add_counters(window, before, runtime.stats())
        if traced:
            window.traced_reads_ms.extend(large_ms)
            window.traced_client_ms.extend(raw_large + raw_small)
            window.traced_late_ms.extend(late)
        else:
            window.reads_ms.extend(large_ms)
            window.raw_reads_ms.extend(raw_large)
            window.small_ms.extend(small_ms)
            window.late_ms.extend(late)
    window.busy_s = window.raw_busy_s = time.perf_counter() - started
    window.rss_peak_mb = rss_peak_mb()
    return window


# ----------------------------------------------------------------------
# the workloads (why each exists: BENCHMARK.json and README.md)
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Workload:
    #: persons per schema in the generated federation
    people: int
    #: builds the system over the sqlite directory, timing its pieces on
    #: the clock: this is the set-up
    build: Callable[[Path, Any, Clock], Any]
    #: the measured window: (system, seed, dataset, seconds, tracer)
    measure: Callable[..., Window]
    #: run the whole process on one CPU (see README.md, "Keeping runs steady")
    one_cpu: bool = False


def _closed(writes: bool) -> Callable[..., Window]:
    return lambda system, seed, dataset, seconds, tracer: closed_loop(
        system, seed, dataset, seconds, writes, tracer
    )


WORKLOADS: Dict[str, Workload] = {
    "warm-read": Workload(
        400,
        lambda root, dataset, clock: SourceSystem(root, dataset, True, clock),
        _closed(False),
    ),
    "cold-scan": Workload(
        400,
        lambda root, dataset, clock: SourceSystem(root, dataset, False, clock),
        _closed(False),
    ),
    "mixed-rw": Workload(
        400,
        lambda root, dataset, clock: SourceSystem(root, dataset, True, clock),
        _closed(True),
    ),
    # a smaller federation: per-request fixed costs and interference
    # are what this workload is for, and the offered rate must stay well
    # under the sqlite tenant's capacity
    "service-open": Workload(
        60,
        lambda root, dataset, clock: ServiceSystem(root, clock),
        open_loop,
        one_cpu=True,
    ),
}
