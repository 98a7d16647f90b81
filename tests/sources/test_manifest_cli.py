"""Manifest round-trips and the user-facing entry points.

A source directory written by the scenario generator must be read back
verbatim by :func:`repro.sources.load_source_federation`, and both front
doors over it — ``repro query --source-dir`` and a service tenant's
``source_dir=`` spec — must answer exactly what the in-memory federation
answers.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ServiceError, SourceConfigError
from repro.federation.mappings import TripleMapping
from repro.federation.relational import Column, ForeignKey
from repro.model.datatypes import DataType
from repro.sources import (
    ColumnMapping,
    LinearMapping,
    RelationSpec,
    load_source_federation,
    write_manifest,
)
from repro.sources.manifest import (
    mapping_from_json,
    mapping_to_json,
    relation_from_json,
    relation_to_json,
)
from repro.workloads import write_source_directory


class TestJsonRoundTrips:
    def test_relation_spec_round_trips(self):
        spec = RelationSpec(
            "person",
            (Column("ssn", DataType.STRING), Column("level", DataType.INTEGER),
             Column("dept", DataType.STRING)),
            primary_key="ssn",
            foreign_keys=(ForeignKey("dept", "department", "code"),),
        )
        assert relation_from_json(relation_to_json(spec)) == spec

    @pytest.mark.parametrize(
        "mapping",
        [
            ColumnMapping("name", default="unknown"),
            ColumnMapping(
                "lvl",
                attribute="level",
                mapping=TripleMapping(((1, "L1", 1.0), (2, "L2", 0.9)), threshold=0.5),
                default=0,
                data_type=DataType.INTEGER,
            ),
            ColumnMapping(
                "level_bp",
                attribute="level",
                mapping=LinearMapping(a=0.01, as_int=True),
                data_type=DataType.INTEGER,
            ),
        ],
    )
    def test_column_mapping_round_trips(self, mapping):
        payload = mapping_to_json(mapping)
        reloaded = mapping_from_json(payload)
        assert mapping_to_json(reloaded) == payload
        assert reloaded.target == mapping.target
        assert reloaded.default == mapping.default
        assert reloaded.data_type == mapping.data_type
        assert type(reloaded.mapping) is type(mapping.mapping)


class TestLoadErrors:
    def test_missing_manifest_is_unavailable(self, tmp_path):
        from repro.errors import SourceUnavailableError

        with pytest.raises(SourceUnavailableError, match="federation.json"):
            load_source_federation(tmp_path)

    def test_unparseable_manifest_is_a_config_error(self, tmp_path):
        (tmp_path / "federation.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(SourceConfigError):
            load_source_federation(tmp_path)

    def test_duplicate_schema_is_a_config_error(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "person.json").write_text(
            '[{"ssn": "1"}]', encoding="utf-8"
        )
        entry = {"schema": "s", "kind": "json", "path": "a"}
        write_manifest(tmp_path, [entry, dict(entry)], assertions="")
        with pytest.raises(SourceConfigError, match="duplicate"):
            load_source_federation(tmp_path)

    def test_unknown_kind_is_a_config_error(self, tmp_path):
        write_manifest(
            tmp_path,
            [{"schema": "s", "kind": "parquet", "path": "x"}],
            assertions="",
        )
        with pytest.raises(SourceConfigError, match="parquet"):
            load_source_federation(tmp_path)


class TestDirectoryRoundTrip:
    def test_written_directory_loads_back_whole(self, tmp_path, small_dataset):
        root = write_source_directory(small_dataset, tmp_path, kinds="json")
        text, databases = load_source_federation(root)
        assert set(databases) == set(small_dataset.schemas)
        assert text.strip() == small_dataset.assertions.strip()
        for schema, store in databases.items():
            assert store.schema.name == schema
            expected = {
                relation: len(rows)
                for relation, rows in small_dataset.rows[schema].items()
            }
            counts = {
                relation: len(store.extent(relation))
                for relation in store.schema.class_names
            }
            assert counts == expected


class TestCliSourceDir:
    def _directory(self, tmp_path, dataset):
        return write_source_directory(dataset, tmp_path, kinds="sqlite")

    def test_query_answers_match_memory(
        self, tmp_path, capsys, small_dataset, memory_fsm
    ):
        directory = self._directory(tmp_path, small_dataset)
        query = "person(level=3) -> ssn"
        expected = sorted(row["ssn"] for row in memory_fsm.query(query))
        rc = main(["query", "--source-dir", str(directory), "--json", query])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(row["ssn"] for row in payload["rows"]) == expected

    def test_source_dir_is_exclusive_with_demo(self, tmp_path, capsys):
        rc = main(
            ["query", "--source-dir", str(tmp_path), "--demo", "genealogy",
             "person() -> ssn"]
        )
        assert rc == 1
        assert "exclusive" in capsys.readouterr().err

    def test_missing_directory_reports_cleanly(self, tmp_path, capsys):
        rc = main(
            ["query", "--source-dir", str(tmp_path / "absent"),
             "person() -> ssn"]
        )
        assert rc == 1
        assert capsys.readouterr().err


class TestTenantSourceDir:
    def test_tenant_spec_accepts_source_dir(self, tmp_path, small_dataset):
        from repro.cli import _parse_tenant_spec

        directory = self._write(tmp_path, small_dataset)
        config = _parse_tenant_spec(
            f"name=t1,source_dir={directory},mode=threaded"
        )
        assert config.source_dir == str(directory)
        assert config.demo is None

    def test_tenant_answers_match_memory(self, tmp_path, small_dataset, memory_fsm):
        from repro.federation.query import FederatedQuery
        from repro.service import Tenant, TenantConfig

        directory = self._write(tmp_path, small_dataset)
        query = "person(level=3) -> ssn"
        expected = sorted(row["ssn"] for row in memory_fsm.query(query))
        tenant = Tenant.build(
            TenantConfig(name="t1", source_dir=str(directory), mode="threaded")
        )
        try:
            rows, _, warnings = tenant.query(FederatedQuery.parse(query))
            assert sorted(row["ssn"] for row in rows) == expected
            assert warnings == []
            _, delta, _ = tenant.query(FederatedQuery.parse(query))
            assert delta.counter("agent_scans") == 0  # warm
        finally:
            tenant.close()

    def test_source_dir_and_schemas_are_exclusive(self, tmp_path):
        from repro.service import TenantConfig

        with pytest.raises(ServiceError, match="exclusive"):
            TenantConfig(
                name="bad", schemas=("s.schema",), assertions="a.dsl",
                source_dir=str(tmp_path),
            )

    @staticmethod
    def _write(tmp_path, dataset):
        return write_source_directory(dataset, tmp_path, kinds="csv")
