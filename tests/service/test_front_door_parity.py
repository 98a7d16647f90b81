"""One front door: ``repro query`` and a service tenant answer alike.

The CLI turns its flags into a :class:`TenantConfig` and builds through
the same :func:`build_session` / :func:`attach_runtime` path a tenant
uses, and both run the query through ``FSM.query``.  These tests pin
that: for every source shape, engine, shard count and evaluator, the
rows of ``main(["query", ..., "--json"])`` equal the rows of
``Tenant.build(config).query(...)`` — and both front doors reject the
same malformed specs.
"""

import io
import json
from pathlib import Path

import pytest

from repro.cli import _parse_tenant_spec, main
from repro.errors import RuntimeFederationError, ServiceError
from repro.federation.query import FederatedQuery
from repro.runtime import FederationRuntime, InProcessTransport, RuntimePolicy
from repro.service import Tenant, TenantConfig
from repro.service.serialization import rows_to_json
from repro.service.tenancy import build_session
from repro.workloads import generate_source_federation, write_source_directory

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "files"


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """``name -> (query, CLI source flags, TenantConfig source fields,
    expected row count)`` for every source shape the front doors accept."""
    files = tmp_path_factory.mktemp("files")
    data = files / "data.json"
    data.write_text(json.dumps({
        "S1": {
            "person": [{"ssn#": "1", "name": "Ann"}],
            "student": [{"ssn#": "2", "name": "Bo", "gpa": 3.5}],
            "lecturer": [{"ssn#": "3", "name": "Cy", "salary": 10}],
        },
        "S2": {
            "human": [{"ssn#": "1", "name": "Ann"}],
            "employee": [{"ssn#": "4", "name": "Di", "income": 20}],
        },
    }))
    schemas = (
        str(EXAMPLES / "university_s1.schema"),
        str(EXAMPLES / "university_s2.schema"),
    )
    assertions = str(EXAMPLES / "university.dsl")
    directory = tmp_path_factory.mktemp("csv")
    write_source_directory(
        generate_source_federation(
            people_per_schema=20, records_per_person=1, seed=17
        ),
        directory,
        kinds="csv",
    )
    return {
        "genealogy": (
            "uncle(niece_nephew='John') -> Ussn#",
            ["--demo", "genealogy"],
            {"demo": "genealogy"},
            1,
        ),
        "cluster": ("person0() -> ssn#", ["--demo", "cluster"], {"demo": "cluster"}, 32),
        "schema-files": (
            "person() -> ssn#",
            ["--schema", schemas[0], "--schema", schemas[1],
             "--assertions", assertions, "--data", str(data)],
            {"schemas": schemas, "assertions": assertions, "data": str(data)},
            5,  # the two Ann rows stay apart: no same-object spec
        ),
        "source-dir": (
            "person(level=3) -> ssn",
            ["--source-dir", str(directory)],
            {"source_dir": str(directory)},
            None,
        ),
    }


def _canonical(rows):
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


@pytest.mark.parametrize("appendix_b", [False, True], ids=["bottom-up", "appendix-b"])
@pytest.mark.parametrize("shards", [0, 4])
@pytest.mark.parametrize("mode", ["threaded", "async"])
@pytest.mark.parametrize(
    "source", ["genealogy", "cluster", "schema-files", "source-dir"]
)
def test_cli_rows_equal_tenant_rows(sources, source, mode, shards, appendix_b):
    text, flags, fields, expected = sources[source]
    argv = ["query", text, *flags, "--mode", mode, "--shards", str(shards), "--json"]
    if appendix_b:
        argv.append("--appendix-b")
    out = io.StringIO()
    assert main(argv, out=out) == 0
    document = json.loads(out.getvalue())

    tenant = Tenant.build(
        TenantConfig(name="parity", mode=mode, shards=shards, **fields)
    )
    try:
        rows, delta, warnings = tenant.query(
            FederatedQuery.parse(text), appendix_b=appendix_b
        )
    finally:
        tenant.close()

    assert rows, "the parity case must answer something"
    if expected is not None:
        assert len(rows) == expected
    assert document["count"] == len(rows)
    assert _canonical(document["rows"]) == _canonical(rows_to_json(rows))
    assert document["warnings"] == warnings == []
    assert delta is not None and delta.counter("agent_scans") >= 1


class TestOneValidation:
    """Both front doors refuse the same specs with the same message."""

    @pytest.mark.parametrize(
        "flags, fields, spec, message",
        [
            (
                ["--demo", "cluster", "--source-dir", "fed"],
                {"demo": "cluster", "source_dir": "fed"},
                "name=x,demo=cluster,source-dir=fed",
                "exclusive",
            ),
            (
                ["--demo", "cluster", "--schema", "a", "--schema", "b"],
                {"demo": "cluster", "schemas": ("a", "b"), "assertions": "x"},
                "name=x,demo=cluster,schema=a;b",
                "exclusive",
            ),
            (
                ["--schema", "a", "--assertions", "x"],
                {"schemas": ("a",), "assertions": "x"},
                "name=x,schema=a,assertions=x",
                "at least two schema files",
            ),
        ],
    )
    def test_rejected_alike(self, capsys, flags, fields, spec, message):
        assert main(["query", "p() -> x", *flags]) == 1
        assert message in capsys.readouterr().err
        with pytest.raises(ServiceError, match=message):
            TenantConfig(name="x", **fields)
        with pytest.raises(ServiceError, match=message):
            _parse_tenant_spec(spec)

    def test_spec_passes_only_given_keys(self):
        assert _parse_tenant_spec("name=x") == TenantConfig(name="x")
        assert _parse_tenant_spec("name=x,plan=off,latency=2") == TenantConfig(
            name="x", plan=False, latency_ms=2.0
        )
        with pytest.raises(ServiceError, match="expects int"):
            _parse_tenant_spec("name=x,shards=many")
        with pytest.raises(ServiceError, match="unknown"):
            _parse_tenant_spec("name=x,max_workers=2")  # the key is workers=


class TestRuntimeOptions:
    def test_use_runtime_refuses_options_with_a_prebuilt_runtime(self):
        fsm = build_session(TenantConfig(name="t", demo="cluster")).fsm
        runtime = FederationRuntime(
            transport=InProcessTransport(fsm._agents, fsm._schema_host)
        )
        try:
            with pytest.raises(RuntimeFederationError, match="prebuilt"):
                fsm.use_runtime(runtime=runtime, plan=False)
            with pytest.raises(RuntimeFederationError, match="prebuilt"):
                fsm.use_runtime(RuntimePolicy(), runtime=runtime)
            assert fsm.runtime is None
            assert fsm.use_runtime(runtime=runtime) is runtime
        finally:
            runtime.close()
