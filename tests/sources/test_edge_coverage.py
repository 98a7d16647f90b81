"""Edge and error paths of the source layer.

Everything here is small and surgical: spec validation, the remaining
coercion corners, the :class:`SourceDatabase` facade methods the parity
and fault suites do not reach, and the manifest loader's rejection
paths.  Together with those suites this holds the package to the CI
coverage floor.
"""

import datetime

import pytest

from repro.errors import (
    SourceConfigError,
    SourceFormatError,
    SourceUnavailableError,
    UnknownClassError,
)
from repro.federation.mappings import FunctionMapping
from repro.federation.relational import Column, ForeignKey
from repro.model.datatypes import DataType
from repro.sources import (
    ColumnMapping,
    CsvSourceAdapter,
    JsonSourceAdapter,
    LinearMapping,
    MemorySourceAdapter,
    RelationSpec,
    SourceAdapter,
    coerce_value,
)
from repro.sources.manifest import (
    build_adapter,
    load_source_federation,
    mapping_from_json,
    mapping_to_json,
    write_manifest,
)


def _spec(name="person"):
    return RelationSpec(
        name,
        (Column("ssn", DataType.STRING), Column("dept", DataType.STRING)),
        foreign_keys=(ForeignKey("dept", "department", "code"),),
    )


def _flat_spec(name="person"):
    return RelationSpec(name, (Column("ssn", DataType.STRING),))


class TestRelationSpecValidation:
    def test_empty_name_is_rejected(self):
        with pytest.raises(SourceConfigError):
            RelationSpec("", (Column("a"),))

    def test_no_columns_is_rejected(self):
        with pytest.raises(SourceConfigError, match="at least one column"):
            RelationSpec("r", ())

    def test_duplicate_columns_are_rejected(self):
        with pytest.raises(SourceConfigError, match="duplicate"):
            RelationSpec("r", (Column("a"), Column("a")))

    def test_primary_key_must_be_a_column(self):
        with pytest.raises(SourceConfigError, match="primary key"):
            RelationSpec("r", (Column("a"),), primary_key="b")

    def test_fk_column_must_be_a_column(self):
        with pytest.raises(SourceConfigError, match="FK column"):
            RelationSpec(
                "r", (Column("a"),),
                foreign_keys=(ForeignKey("b", "t", "c"),),
            )

    def test_unknown_column_lookup_is_typed(self):
        with pytest.raises(SourceConfigError, match="no column"):
            _spec().column("nope")


class TestAdapterContract:
    def test_empty_source_name_is_rejected(self):
        with pytest.raises(SourceConfigError):
            MemorySourceAdapter("", {}, (_spec(),))

    def test_base_storage_hooks_are_abstract(self):
        adapter = SourceAdapter("base")
        with pytest.raises(NotImplementedError):
            adapter.discover()
        with pytest.raises(NotImplementedError):
            adapter.fetch_rows(_spec())
        with pytest.raises(NotImplementedError):
            adapter.source_version()

    def test_relationless_source_is_a_config_error(self):
        adapter = MemorySourceAdapter("m", {}, ())
        with pytest.raises(SourceConfigError, match="no relations"):
            adapter.relations()

    def test_linear_mapping_repr_names_the_function(self):
        assert "2.54" in repr(LinearMapping(a=2.54))
        assert "int" in repr(LinearMapping(a=0.01, as_int=True))


class TestRemainingCoercions:
    def test_real_and_integer_reject_foreign_objects(self):
        kw = dict(source="s", relation="r", column="c")
        with pytest.raises(SourceFormatError):
            coerce_value(["list"], DataType.REAL, **kw)
        with pytest.raises(SourceFormatError):
            coerce_value(object(), DataType.INTEGER, **kw)
        with pytest.raises(SourceFormatError):
            coerce_value(True, DataType.REAL, **kw)

    def test_string_accepts_dates_and_rejects_collections(self):
        kw = dict(source="s", relation="r", column="c")
        assert (
            coerce_value(datetime.date(2024, 5, 1), DataType.STRING, **kw)
            == "2024-05-01"
        )
        with pytest.raises(SourceFormatError):
            coerce_value(["x"], DataType.STRING, **kw)

    def test_date_accepts_datetime_and_date(self):
        kw = dict(source="s", relation="r", column="c")
        moment = datetime.datetime(2024, 5, 1, 12, 30)
        assert coerce_value(moment, DataType.DATE, **kw) == moment.date()
        today = datetime.date(2024, 5, 2)
        assert coerce_value(today, DataType.DATE, **kw) is today
        with pytest.raises(SourceFormatError):
            coerce_value(3.5, DataType.DATE, **kw)

    def test_boolean_rejects_floats(self):
        with pytest.raises(SourceFormatError):
            coerce_value(1.0, DataType.BOOLEAN, source="s", relation="r", column="c")


class TestStoreFacade:
    def _store(self):
        return MemorySourceAdapter(
            "m",
            {
                "department": [
                    {"code": "d0", "title": "x"},
                    {"code": "d1", "title": None},
                ],
                "person": [
                    {"ssn": "1", "dept": "d0"},
                    {"ssn": "2", "dept": None},
                ],
            },
            (
                RelationSpec(
                    "department",
                    (Column("code"), Column("title")),
                ),
                _spec(),
            ),
            agent="agent-m",
            system="component",
        ).database()

    def test_unknown_class_raises(self):
        with pytest.raises(UnknownClassError):
            self._store().direct_extent("nope")

    def test_select_filters_the_extent(self):
        store = self._store()
        chosen = store.direct_extent("person", where=(("ssn", "2"),))
        assert [i.get("ssn") for i in chosen] == ["2"]

    def test_follow_resolves_and_tolerates_null_fks(self):
        store = self._store()
        linked, unlinked = store.extent("person")
        department, _ = store.extent("department")
        assert linked.get("dept") == department.oid
        assert department.get("code") == "d0"
        assert unlinked.get("dept") is None

    def test_value_set_skips_nulls(self):
        assert self._store().value_set("department", "title") == {"x"}


class TestWeaklyTypedEdges:
    def test_empty_csv_file_has_no_header(self, tmp_path):
        (tmp_path / "person.csv").write_text("", encoding="utf-8")
        adapter = CsvSourceAdapter(tmp_path)
        with pytest.raises(SourceFormatError, match="no header"):
            adapter.relations()
        declared = CsvSourceAdapter(tmp_path, relations=(_flat_spec(),))
        with pytest.raises(SourceFormatError, match="no header"):
            declared.scan("person")

    def test_empty_csv_directory_is_a_config_error(self, tmp_path):
        with pytest.raises(SourceConfigError, match="holds no"):
            CsvSourceAdapter(tmp_path).relations()

    def test_unreadable_csv_file_is_unavailable(self, tmp_path):
        (tmp_path / "person.csv").mkdir()  # a directory, not a file
        adapter = CsvSourceAdapter(tmp_path)
        with pytest.raises(SourceUnavailableError):
            adapter.relations()
        declared = CsvSourceAdapter(tmp_path, relations=(_flat_spec(),))
        with pytest.raises(SourceUnavailableError):
            declared.scan("person")

    def test_missing_json_directory_is_unavailable(self, tmp_path):
        with pytest.raises(SourceUnavailableError):
            JsonSourceAdapter(tmp_path / "absent").relations()

    def test_empty_json_directory_is_a_config_error(self, tmp_path):
        with pytest.raises(SourceConfigError, match="holds no"):
            JsonSourceAdapter(tmp_path).relations()

    def test_empty_json_array_cannot_infer_columns(self, tmp_path):
        (tmp_path / "person.json").write_text("[]", encoding="utf-8")
        with pytest.raises(SourceFormatError, match="no records"):
            JsonSourceAdapter(tmp_path).relations()

    def test_unreadable_json_file_is_unavailable(self, tmp_path):
        (tmp_path / "person.json").mkdir()
        declared = JsonSourceAdapter(tmp_path, relations=(_flat_spec(),))
        with pytest.raises(SourceUnavailableError):
            declared.scan("person")

    def test_json_type_inference_covers_every_primitive(self, tmp_path):
        (tmp_path / "person.json").write_text(
            '[{"i": 1, "f": 1.5, "b": true, "s": "x", "n": null},'
            ' {"n": "late"}]',
            encoding="utf-8",
        )
        spec = {s.name: s for s in JsonSourceAdapter(tmp_path).relations()}["person"]
        types = {c.name: c.data_type for c in spec.columns}
        assert types == {
            "i": DataType.INTEGER,
            "f": DataType.REAL,
            "b": DataType.BOOLEAN,
            "s": DataType.STRING,
            "n": DataType.STRING,  # first non-null decides
        }

    def test_json_non_object_record_fails_declared_fetch(self, tmp_path):
        (tmp_path / "person.json").write_text(
            '[{"ssn": "1"}, 42]', encoding="utf-8"
        )
        adapter = JsonSourceAdapter(tmp_path, relations=(_flat_spec(),))
        with pytest.raises(SourceFormatError, match="not an object"):
            adapter.scan("person")


class TestManifestRejections:
    def test_relation_from_json_rejects_malformed_payloads(self):
        from repro.sources.manifest import relation_from_json

        with pytest.raises(SourceConfigError, match="bad relation spec"):
            relation_from_json({"columns": [["a", "string"]]})
        with pytest.raises(SourceConfigError, match="bad relation spec"):
            relation_from_json({"name": "r", "columns": [["a", "no-such-type"]]})

    def test_mapping_from_json_rejects_unknown_kind_and_missing_column(self):
        with pytest.raises(SourceConfigError, match="unknown mapping kind"):
            mapping_from_json({"column": "c", "kind": "quadratic"})
        with pytest.raises(SourceConfigError, match="names no column"):
            mapping_from_json({"kind": "default"})

    def test_mapping_to_json_rejects_opaque_callables(self):
        opaque = ColumnMapping("c", mapping=FunctionMapping(lambda v: v))
        with pytest.raises(SourceConfigError, match="no manifest form"):
            mapping_to_json(opaque)

    def test_build_adapter_requires_schema_and_path(self, tmp_path):
        with pytest.raises(SourceConfigError, match="names no schema"):
            build_adapter(tmp_path, {"kind": "csv"})
        with pytest.raises(SourceConfigError, match="names no path"):
            build_adapter(tmp_path, {"kind": "csv", "schema": "s"})

    def test_manifest_must_hold_a_sources_array(self, tmp_path):
        (tmp_path / "federation.json").write_text("[]", encoding="utf-8")
        with pytest.raises(SourceConfigError, match="sources"):
            load_source_federation(tmp_path)

    def test_source_entries_must_be_objects(self, tmp_path):
        (tmp_path / "federation.json").write_text(
            '{"sources": ["nope"]}', encoding="utf-8"
        )
        with pytest.raises(SourceConfigError, match="bad source entry"):
            load_source_federation(tmp_path)

    def test_empty_sources_are_rejected(self, tmp_path):
        (tmp_path / "federation.json").write_text(
            '{"sources": []}', encoding="utf-8"
        )
        with pytest.raises(SourceConfigError, match="declares no sources"):
            load_source_federation(tmp_path)

    def test_missing_assertion_file_is_unavailable(self, tmp_path):
        (tmp_path / "s").mkdir()
        (tmp_path / "s" / "person.json").write_text(
            '[{"ssn": "1"}]', encoding="utf-8"
        )
        (tmp_path / "federation.json").write_text(
            '{"assertions": "gone.dsl", "sources": '
            '[{"schema": "s", "kind": "json", "path": "s"}]}',
            encoding="utf-8",
        )
        with pytest.raises(SourceUnavailableError, match="gone.dsl"):
            load_source_federation(tmp_path)

    def test_write_manifest_without_assertions_omits_the_key(self, tmp_path):
        path = write_manifest(
            tmp_path, [{"schema": "s", "kind": "json", "path": "s"}]
        )
        assert "assertions" not in path.read_text(encoding="utf-8")
