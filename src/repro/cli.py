"""Command-line interface: ``python -m repro``.

Subcommands:

``integrate LEFT.schema RIGHT.schema ASSERTIONS.dsl``
    Parse two schema files (the :mod:`repro.model.textio` format) and an
    assertion DSL file, run the integration and print the integrated
    schema; ``--algorithm`` picks optimized / naive / sull_kashyap,
    ``--stats`` appends the instrumentation counters, ``--log`` the
    build log (including §6.1 observation-3 warnings).

``tables``
    Print the paper's Tables 1-3 (the assertion taxonomies).

``check LEFT.schema RIGHT.schema ASSERTIONS.dsl``
    Validate schemas and assertions without integrating; exit status 1
    on the first error, with a readable message.

``query "class(attr='v') -> out"``
    Integrate a federation and run a global query through the federation
    runtime.  Sources are either ``--demo genealogy|cluster`` (built-in
    populated scenarios) or ``--schema`` files plus ``--assertions`` and
    an optional ``--data`` JSON file (``{"S1": {"class": [{...}]}}``).
    ``--latency MS`` simulates per-call network latency, ``--workers`` /
    ``--sequential`` size the fan-out pool, ``--mode threaded|async``
    picks the execution engine (``--max-inflight`` bounds the async
    in-flight window), ``--shards N`` scatters every extent scan across
    N shard endpoints per agent (a hash of each global OID picks its
    shard), ``--cache-path FILE`` persists the extent cache
    to a sqlite file (a re-run with the same path answers warm without
    touching one agent), ``--plan`` / ``--no-plan`` toggles the query
    planner (assertion-graph pruning, per-endpoint scan coalescing,
    and with ``--no-cache`` selection pushdown; on by default; ``--stats``
    prints the plan), ``--deltas`` / ``--no-deltas``
    toggles patching stale cached extents from component delta feeds
    (on by default), ``--repeat N`` re-runs the query
    (showing the extent cache), ``--appendix-b`` uses the top-down
    evaluator,
    ``--stats`` prints the per-query and cumulative
    :class:`~repro.runtime.RuntimeStats`, and ``--json`` switches the
    whole output (rows, warnings, stats) to one machine-readable JSON
    document sharing its vocabulary with the HTTP service.  The flags
    become a :class:`~repro.service.TenantConfig`, so the command
    validates, builds and queries exactly as a service tenant does.

``serve``
    Host the multi-tenant federation query service
    (:mod:`repro.service`) on stdlib asyncio HTTP.  ``--tenant`` adds
    one isolated federation per flag (``key=value`` pairs:
    ``name=t1,demo=cluster,mode=async,shards=4,...``); all async-mode
    tenants multiplex their agent scans on one shared event loop.
    ``--allow-remote-shutdown`` enables ``POST /admin/shutdown`` for
    deterministic teardown in scripts and CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from .assertions.kinds import TABLE_1, TABLE_2, TABLE_3, render_table
from .assertions.parser import parse_file as parse_assertion_file
from .assertions.assertion_set import AssertionSet
from .core.integrator import ALGORITHMS, SchemaIntegrator
from .errors import ReproError
from .model.textio import parse_schema_file


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Integrate heterogeneous OO schemas "
            "(reproduction of Chen, ICDE 1999)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    integrate = commands.add_parser(
        "integrate", help="integrate two schema files using an assertion file"
    )
    integrate.add_argument("left", help="left schema file")
    integrate.add_argument("right", help="right schema file")
    integrate.add_argument("assertions", help="assertion DSL file")
    integrate.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="optimized",
        help="integration algorithm (default: optimized)",
    )
    integrate.add_argument(
        "--stats", action="store_true", help="print instrumentation counters"
    )
    integrate.add_argument(
        "--log", action="store_true", help="print the integration build log"
    )
    integrate.add_argument(
        "--report", action="store_true",
        help="print a markdown summary report instead of the schema",
    )

    commands.add_parser("tables", help="print the paper's Tables 1-3")

    check = commands.add_parser(
        "check", help="validate schemas and assertions without integrating"
    )
    check.add_argument("left")
    check.add_argument("right")
    check.add_argument("assertions")

    query = commands.add_parser(
        "query", help="run a federated query through the federation runtime"
    )
    query.add_argument("query", help="e.g. \"uncle(niece_nephew='John') -> Ussn#\"")
    query.add_argument(
        "--demo",
        choices=("genealogy", "cluster"),
        help="use a built-in populated federation instead of files",
    )
    query.add_argument(
        "--schema",
        action="append",
        default=[],
        metavar="FILE",
        help="component schema file (repeatable; needs --assertions)",
    )
    query.add_argument("--assertions", help="assertion DSL file for --schema mode")
    query.add_argument(
        "--data",
        help="JSON instance file: {schema: {class: [attribute maps]}}",
    )
    query.add_argument(
        "--source-dir",
        metavar="DIR",
        help="load a disk-backed federation from DIR: a federation.json "
        "manifest naming sqlite/CSV/JSON component sources plus an "
        "assertion file (exclusive with --demo/--schema)",
    )
    query.add_argument(
        "--appendix-b",
        action="store_true",
        help="evaluate top-down (Appendix B) instead of bottom-up",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print per-query and cumulative runtime stats",
    )
    query.add_argument(
        "--latency",
        type=float,
        default=0.0,
        metavar="MS",
        help="simulated per-agent-call latency in milliseconds",
    )
    query.add_argument(
        "--workers",
        type=int,
        default=8,
        help="fan-out thread pool size for scans that wait (--latency)",
    )
    query.add_argument(
        "--mode",
        choices=("threaded", "async"),
        default="threaded",
        help="execution engine: thread-pool fan-out (default) or one asyncio "
        "event loop multiplexing every agent scan (same answers, same "
        "cache, same stats)",
    )
    query.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="concurrent in-flight scans the async executor admits "
        "(only with --mode async; default 64)",
    )
    query.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="split every extent across N shard endpoints per agent "
        "(0 disables sharding)",
    )
    query.add_argument(
        "--cache-path",
        metavar="FILE",
        help="persist the extent cache to a sqlite file; re-running with "
        "the same path restores it, so warm queries touch no agent",
    )
    query.add_argument(
        "--sequential",
        action="store_true",
        help="one worker, no retries (the pre-runtime behaviour)",
    )
    query.add_argument(
        "--plan",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="run the query planner: assertion-graph pruning, per-endpoint "
        "scan coalescing and, with --no-cache, pushing the query's "
        "equalities into the component scans (--no-plan restores one "
        "round-trip per unnarrowed scan granule)",
    )
    query.add_argument(
        "--deltas",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="patch stale cached extents from component delta feeds "
        "instead of rescanning them (--no-deltas restores the "
        "rescan-on-any-write baseline)",
    )
    query.add_argument(
        "--no-cache", action="store_true", help="disable the extent cache"
    )
    query.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="run the query N times (repeats hit the extent cache)",
    )
    query.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="emit rows, warnings and stats as one JSON document "
        "(same vocabulary as the HTTP service endpoints)",
    )

    serve = commands.add_parser(
        "serve", help="host the multi-tenant federation query service"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8722,
        help="bind port (0 picks a free one; the chosen port is printed)",
    )
    serve.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="SPEC",
        help="add one tenant: comma-separated key=value pairs "
        "(name=, demo=genealogy|cluster, mode=threaded|async, "
        "schema= (repeatable via ';'), assertions=, data=, source-dir=, "
        "shards=, latency=MS, max-inflight=, workers=, "
        "cache-path=, plan=true|false, deltas=true|false); default: one "
        "async 'genealogy' tenant",
    )
    serve.add_argument(
        "--allow-remote-shutdown",
        action="store_true",
        help="enable POST /admin/shutdown (off by default)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="seconds to wait for in-flight queries on shutdown",
    )
    return parser


def _load(left_path: str, right_path: str, assertions_path: str):
    left = parse_schema_file(left_path)
    right = parse_schema_file(right_path)
    assertions = AssertionSet(left.name, right.name)
    assertions.extend(parse_assertion_file(assertions_path))
    return left, right, assertions


def _query_config(arguments):
    """The ``query`` flags as the one federation spec, a
    :class:`~repro.service.TenantConfig`."""
    from .errors import QueryError
    from .service import TenantConfig

    if not (arguments.demo or arguments.schema or arguments.source_dir):
        # an empty TenantConfig means the genealogy demo; the CLI asks
        raise QueryError(
            "query needs --demo, --source-dir, or at least two --schema "
            "files plus --assertions"
        )
    return TenantConfig(
        name="query",
        demo=arguments.demo,
        schemas=tuple(arguments.schema),
        assertions=arguments.assertions,
        data=arguments.data,
        source_dir=arguments.source_dir,
        mode=arguments.mode,
        scan_inflight=arguments.max_inflight,
        max_workers=arguments.workers,
        shards=arguments.shards,
        cache_path=arguments.cache_path,
        latency_ms=arguments.latency,
        plan=arguments.plan,
        deltas=arguments.deltas,
    )


def _cmd_query(arguments, out) -> int:
    from .federation.query import FederatedQuery
    from .runtime import RuntimePolicy
    from .service.tenancy import attach_runtime, build_session

    config = _query_config(arguments)
    if arguments.sequential:
        policy = RuntimePolicy.sequential(cache_enabled=not arguments.no_cache)
    else:
        policy = RuntimePolicy(
            max_workers=max(1, arguments.workers),
            max_inflight=max(1, arguments.max_inflight),
            cache_enabled=not arguments.no_cache,
        )
    session = build_session(config)
    runtime = attach_runtime(session, config, policy=policy)
    fsm = session.fsm
    # From here on the runtime owns threads, loops and possibly a sqlite
    # store — close() on every exit path (it is idempotent), so a failed
    # query does not leak an event-loop thread or an open cache file.
    try:
        query = FederatedQuery.parse(arguments.query)
        repeats = max(1, arguments.repeat)
        rows = []
        runs = []
        for run in range(repeats):
            rows = fsm.query(query, appendix_b=arguments.appendix_b)
            delta = fsm.last_query_stats
            timer = delta.timers.get("query")
            runs.append(
                {
                    "run": run + 1,
                    "elapsed_ms": round(timer.total * 1000.0, 3),
                    "agent_scans": delta.counter("agent_scans"),
                    "cache_hits": delta.counter("cache_hits"),
                }
            )
            if arguments.stats and not arguments.as_json and repeats > 1:
                print(
                    f"run {run + 1}: {timer.total * 1000:.2f}ms  "
                    f"agent_scans={delta.counter('agent_scans')}  "
                    f"cache_hits={delta.counter('cache_hits')}",
                    file=out,
                )
        warnings = runtime.drain_warnings()
        if arguments.as_json:
            import json

            from .service.serialization import rows_to_json, stats_to_dict

            document = {
                "query": str(query),
                "evaluator": "appendix_b" if arguments.appendix_b else "bottom_up",
                "rows": rows_to_json(rows),
                "count": len(rows),
                "warnings": list(warnings),
            }
            if arguments.stats:
                document["runs"] = runs
                if runtime.last_plan is not None:
                    document["plan"] = runtime.last_plan.describe()
                document["stats"] = {
                    "last_query": stats_to_dict(fsm.last_query_stats),
                    "cumulative": stats_to_dict(runtime.stats()),
                }
            print(json.dumps(document, indent=2), file=out)
            return 0
        if not rows:
            print("no answers", file=out)
        for row in rows:
            items = ", ".join(f"{k}={v!r}" for k, v in row.items())
            print(f"  {items}", file=out)
        for warning in warnings:
            print(f"warning: {warning}", file=out)
        if arguments.stats:
            print(file=out)
            if runtime.last_plan is not None:
                print(runtime.last_plan.describe(), file=out)
            print("last query:", file=out)
            print(fsm.last_query_stats.describe(), file=out)
            print(file=out)
            print("cumulative:", file=out)
            print(runtime.stats().describe(), file=out)
        return 0
    finally:
        runtime.close()  # flush/release the persistent cache store, if any


#: tenant-spec keys spelled differently from their TenantConfig field
_SPEC_ALIASES = {"schema": "schemas", "workers": "max_workers", "latency": "latency_ms"}


def _parse_tenant_spec(spec: str):
    """``name=t1,demo=cluster,mode=async,...`` → :class:`TenantConfig`.

    Only the keys given reach the config, converted by the type of the
    field's default; every default lives on :class:`TenantConfig`.
    """
    import dataclasses

    from .errors import ServiceError
    from .service import TenantConfig

    fields = {field.name: field for field in dataclasses.fields(TenantConfig)}
    for key, name in _SPEC_ALIASES.items():
        fields[key] = fields.pop(name)
    values = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, eq, value = part.partition("=")
        if not eq:
            raise ServiceError(f"tenant spec part {part!r} is not key=value")
        values[key.strip().lower().replace("-", "_")] = value.strip()
    unknown = sorted(set(values) - set(fields))
    if unknown:
        raise ServiceError(f"unknown tenant spec keys: {', '.join(unknown)}")
    if "name" not in values:
        raise ServiceError(f"tenant spec {spec!r} needs name=...")
    config: Dict[str, Any] = {}
    for key, text in values.items():
        field = fields[key]
        kind = type(field.default)
        converted: Any
        try:
            if kind is bool:
                converted = text.lower() not in ("0", "false", "no", "off")
            elif kind is tuple:
                converted = tuple(path for path in text.split(";") if path)
            elif kind in (int, float):
                converted = kind(text)
            else:
                converted = text
        except ValueError:
            raise ServiceError(
                f"tenant spec key {key!r} expects {kind.__name__}, got {text!r}"
            ) from None
        config[field.name] = converted
    return TenantConfig(**config)


def _cmd_serve(arguments, out) -> int:
    import threading

    from .service import FederationRepository, ServiceServer, create_app

    repository = FederationRepository(drain_timeout=arguments.drain_timeout)
    try:
        specs = arguments.tenant or ["name=genealogy,demo=genealogy,mode=async"]
        for spec in specs:
            config = _parse_tenant_spec(spec)
            tenant = repository.add_tenant(config)
            print(
                f"tenant {tenant.name!r} ready "
                f"({config.mode}, schemas={len(tenant.session.fsm.schema_names())})",
                file=out,
            )
        app = create_app(
            repository, allow_shutdown=arguments.allow_remote_shutdown
        )
        server = ServiceServer(app, host=arguments.host, port=arguments.port)

        def announce() -> None:
            # the bound port is only known once the loop is up; announce
            # from the side so `--port 0` scripts can parse the address
            if server.ready.wait(timeout=30.0):
                print(
                    f"listening on http://{server.host}:{server.bound_port}",
                    file=out,
                    flush=True,
                )

        threading.Thread(target=announce, name="serve-announce", daemon=True).start()
        try:
            server.run()
        except KeyboardInterrupt:
            print("interrupt: draining in-flight queries", file=out)
        return 0
    finally:
        repository.close()


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the exit status."""
    out = out or sys.stdout
    arguments = _build_parser().parse_args(argv)
    try:
        if arguments.command == "tables":
            print(render_table(TABLE_1, "Table 1. Assertions for classes."), file=out)
            print(file=out)
            print(render_table(TABLE_2, "Table 2. Assertions for attributes."), file=out)
            print(file=out)
            print(
                render_table(TABLE_3, "Table 3. Assertions for aggregation functions."),
                file=out,
            )
            return 0
        if arguments.command == "query":
            return _cmd_query(arguments, out)
        if arguments.command == "serve":
            return _cmd_serve(arguments, out)
        if arguments.command == "check":
            from .assertions.analysis import report as analysis_report

            left, right, assertions = _load(
                arguments.left, arguments.right, arguments.assertions
            )
            assertions.validate(left, right)
            print(
                f"OK: {len(left)} + {len(right)} classes, "
                f"{len(assertions)} assertions validate",
                file=out,
            )
            print(analysis_report(assertions, left, right), file=out)
            return 0
        if arguments.command == "integrate":
            left, right, assertions = _load(
                arguments.left, arguments.right, arguments.assertions
            )
            integrator = SchemaIntegrator(
                left, right, assertions, algorithm=arguments.algorithm
            )
            result = integrator.run()
            if arguments.report:
                from .integration.report import build_report, render_markdown

                print(
                    render_markdown(build_report(result, integrator.stats)),
                    file=out,
                )
            else:
                print(result.describe(), file=out)
            if arguments.stats:
                print(file=out)
                print(integrator.stats.describe(), file=out)
            if arguments.log:
                print(file=out)
                print("build log:", file=out)
                for note in result.log:
                    print(f"  {note}", file=out)
            return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 2  # pragma: no cover - argparse enforces the command set
