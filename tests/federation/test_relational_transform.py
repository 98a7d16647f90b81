"""The §3 relational → OO transformation of a relational component.

A relational component enters the federation through a source adapter;
these cases run the paper's ``PatientDB`` example through
:class:`~repro.sources.MemorySourceAdapter`.
"""

import pytest

from repro.errors import (
    DuplicateDefinitionError,
    SourceConfigError,
    SourceFormatError,
    UnknownClassError,
)
from repro.federation import Column, ForeignKey
from repro.model import Cardinality, DataType
from repro.sources import MemorySourceAdapter, RelationSpec

WARDS = RelationSpec("wards", (Column("ward_id"), Column("floor", DataType.INTEGER)))
RECORDS = RelationSpec(
    "patient-records",
    (Column("pid"), Column("name"), Column("ward_id")),
    primary_key="pid",
    foreign_keys=(ForeignKey("ward_id", "wards", "ward_id"),),
)


@pytest.fixture
def patient_db() -> MemorySourceAdapter:
    return MemorySourceAdapter(
        "PatientDB",
        {
            "wards": [{"ward_id": "W1", "floor": 3}],
            "patient-records": [
                {"pid": f"p{i}", "name": f"N{i}", "ward_id": "W1"} for i in range(5)
            ],
        },
        [WARDS, RECORDS],
        agent="FSMagent1",
        system="informix",
    )


class TestRelational:
    def test_oids_match_paper_example(self, patient_db):
        oids = [str(instance.oid) for instance in patient_db.scan("patient-records")]
        assert "FSMagent1.informix.PatientDB.patient-records.5" in oids

    def test_scan_with_predicate_and_projection(self, patient_db):
        # the FK column is projected out of the attributes (it is an
        # aggregation of the OO view)
        [row] = patient_db.scan("patient-records", where=(("name", "N2"),))
        assert row.attributes == {"pid": "p2", "name": "N2"}

    def test_lookup_by_value(self, patient_db):
        [ward] = patient_db.scan("wards")
        patients = patient_db.scan("patient-records")
        assert sum(1 for p in patients if p.get("ward_id") == ward.oid) == 5

    def test_type_checked_insert(self, patient_db):
        with pytest.raises(SourceFormatError, match="coerce"):
            patient_db.insert("wards", {"ward_id": "W2", "floor": "three"})

    def test_unknown_column_rejected(self, patient_db):
        with pytest.raises(SourceConfigError, match="zzz"):
            patient_db.insert("wards", {"ward_id": "W2", "zzz": 1})

    def test_unknown_relation_rejected(self, patient_db):
        with pytest.raises(UnknownClassError):
            patient_db.scan("ghost")

    def test_duplicate_relation_rejected(self):
        adapter = MemorySourceAdapter(
            "D", {}, [WARDS, RelationSpec("wards", (Column("x"),))]
        )
        with pytest.raises(DuplicateDefinitionError):
            adapter.schema()


class TestTransform:
    def test_relations_become_classes(self, patient_db):
        schema = patient_db.schema()
        assert set(schema.class_names) == {"wards", "patient-records"}

    def test_plain_columns_become_attributes(self, patient_db):
        ward = patient_db.schema().cls("wards")
        assert ward.attribute("floor").value_type is DataType.INTEGER

    def test_foreign_keys_become_aggregations(self, patient_db):
        record = patient_db.schema().cls("patient-records")
        agg = record.aggregation("ward_id")
        assert agg.range_class == "wards"
        assert agg.cardinality is Cardinality.M_TO_ONE

    def test_pk_foreign_key_is_one_to_one(self):
        adapter = MemorySourceAdapter(
            "D",
            {},
            [
                RelationSpec("a", (Column("id"),)),
                RelationSpec(
                    "b",
                    (Column("id"),),
                    primary_key="id",
                    foreign_keys=(ForeignKey("id", "a", "id"),),
                ),
            ],
        )
        schema = adapter.schema()
        assert schema.cls("b").aggregation("id").cardinality is Cardinality.ONE_TO_ONE


class TestMaterializeView:
    def test_tuples_become_instances_under_their_oids(self, patient_db):
        view = patient_db.database()
        assert len(view.extent("patient-records")) == 5
        [first] = [o for o in view.extent("patient-records") if o.oid.number == 1]
        assert first["name"] == "N0"

    def test_fk_values_resolve_to_target_oids(self, patient_db):
        view = patient_db.database()
        [patient] = [o for o in view.extent("patient-records") if o.oid.number == 1]
        [ward] = [o for o in view.extent("wards") if o.oid == patient["ward_id"]]
        assert ward["floor"] == 3

    def test_dangling_fk_stays_unresolved(self):
        adapter = MemorySourceAdapter(
            "D",
            {"b": [{"id": "x", "ref": "missing"}]},
            [
                RelationSpec("a", (Column("id"),)),
                RelationSpec(
                    "b",
                    (Column("id"), Column("ref")),
                    foreign_keys=(ForeignKey("ref", "a", "id"),),
                ),
            ],
        )
        [orphan] = adapter.database().extent("b")
        assert orphan.get("ref") is None
