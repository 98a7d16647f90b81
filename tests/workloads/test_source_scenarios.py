"""Scenario-generator determinism: same seed, same federation, same bytes.

Committed benchmark numbers are only comparable across machines if the
large-extent generator is exactly reproducible, so these tests pin it
three ways: equal datasets in memory, byte-identical materialized
directories (manifest included), and the explicit-RNG plumbing of the
older §6.3 generators that previously seeded module-global state.
"""

import hashlib
import random
from pathlib import Path

import pytest

from repro.errors import SourceConfigError
from repro.workloads import (
    build_memory_databases,
    federated_cluster,
    generate_source_federation,
    mirrored_pair,
    populate,
    random_tree_schema,
    write_source_directory,
)


def _digests(directory):
    return {
        str(path.relative_to(directory)): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in sorted(Path(directory).rglob("*"))
        if path.is_file()
    }


class TestGeneratorDeterminism:
    def test_same_seed_same_dataset(self):
        first = generate_source_federation(
            people_per_schema=40, records_per_person=3, seed=23
        )
        second = generate_source_federation(
            people_per_schema=40, records_per_person=3, seed=23
        )
        assert first.rows == second.rows
        assert first.relations == second.relations
        assert first.assertions == second.assertions

    def test_different_seed_different_rows(self):
        first = generate_source_federation(people_per_schema=40, seed=23)
        second = generate_source_federation(people_per_schema=40, seed=24)
        assert first.rows != second.rows

    def test_explicit_rng_equals_seed(self):
        seeded = generate_source_federation(people_per_schema=15, seed=8)
        explicit = generate_source_federation(
            people_per_schema=15, rng=random.Random(8), seed=999
        )
        assert seeded.rows == explicit.rows

    def test_written_directories_are_byte_identical(self, tmp_path):
        kinds = {"university": "sqlite", "hospital": "csv", "market": "json"}
        for run in ("first", "second"):
            dataset = generate_source_federation(
                people_per_schema=25, records_per_person=2, seed=31
            )
            write_source_directory(dataset, tmp_path / run, kinds=kinds)
        first = _digests(tmp_path / "first")
        second = _digests(tmp_path / "second")
        assert first and first == second

    def test_instance_accounting(self):
        dataset = generate_source_federation(
            people_per_schema=100, records_per_person=4, seed=1
        )
        # 3 schemas x (100 people + 400 records + 3 lookups)
        assert dataset.total_instances == 3 * (100 + 400 + 3)
        databases = build_memory_databases(dataset)
        assert sum(
            len(store.extent(relation))
            for store in databases.values()
            for relation in store.schema.class_names
        ) == dataset.total_instances

    def test_empty_schema_list_is_rejected(self):
        with pytest.raises(SourceConfigError):
            generate_source_federation(schemas=())


class TestHeterogeneousLevelStorage:
    """The three storage conventions agree after their data mappings."""

    def test_levels_agree_across_schemas(self):
        dataset = generate_source_federation(people_per_schema=60, seed=12)
        databases = build_memory_databases(dataset)
        for store in databases.values():
            assert store.value_set("person", "level") <= {1, 2, 3, 4, 5}

    def test_raw_storage_really_differs(self):
        dataset = generate_source_federation(people_per_schema=5, seed=12)
        university = dataset.rows["university"]["person"][0]
        hospital = dataset.rows["hospital"]["person"][0]
        market = dataset.rows["market"]["person"][0]
        assert isinstance(university["level"], int)
        assert isinstance(hospital["lvl"], str) and hospital["lvl"].startswith("L")
        assert isinstance(market["level_bp"], int) and market["level_bp"] >= 100


class TestExplicitRngRegression:
    """The §6.3 generators take an explicit rng; equal seeds stay equal.

    Regression for implicit seeding: every draw must come from the one
    generator the caller controls, so interleaving other random calls
    (or the process's hash seed) cannot change a generated workload.
    """

    def test_random_tree_schema_rng_equals_seed(self):
        seeded = random_tree_schema("S1", 30, seed=19)
        explicit = random_tree_schema("S1", 30, seed=999, rng=random.Random(19))
        assert [c.name for c in seeded] == [c.name for c in explicit]
        assert [
            sorted(c.parents) for c in seeded
        ] == [sorted(c.parents) for c in explicit]

    def test_mirrored_pair_same_seed_same_assertions(self):
        def shape(assertions):
            return [
                (a.kind, str(a.sources), str(a.target)) for a in assertions
            ]

        first = mirrored_pair(20, seed=7, equivalence_fraction=0.5)
        second = mirrored_pair(20, seed=7, equivalence_fraction=0.5)
        assert shape(first[2]) == shape(second[2])

    def test_federated_cluster_rng_equals_seed(self):
        _, _, seeded = federated_cluster(schemas=2, per_class=6, seed=13)
        _, _, explicit = federated_cluster(
            schemas=2, per_class=6, seed=999, rng=random.Random(13)
        )
        for name in seeded:
            assert [i.attributes for i in seeded[name].extent("person0")] == [
                i.attributes for i in explicit[name].extent("person0")
            ]

    def test_populate_rng_equals_seed(self):
        schema = random_tree_schema("S1", 8, seed=3)
        seeded = populate(schema, 5, seed=21)
        explicit = populate(schema, 5, seed=0, rng=random.Random(21))
        for class_def in schema:
            assert [
                i.attributes for i in seeded.extent(class_def.name)
            ] == [i.attributes for i in explicit.extent(class_def.name)]
