"""Shard-scoped scans: a store asked for one shard's extent returns
exactly that shard's slice of the whole extent.

Sources decide ownership from the tuple number before the §3
transformation, so the slice they build must equal the whole extent
filtered by OID, in the same order — for every backend and any shard
count, including tombstoned numbers after deletes, NULL and dangling
foreign keys, and fuzzy and conversion mappings.
"""

import collections
import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RuntimeFederationError
from repro.federation import FSMAgent
from repro.model import OID
from repro.runtime import InProcessTransport, ShardPlan, ShardSpec, shard_of_oid
from repro.runtime.transport import ScanRequest
from repro.sources import load_source_federation
from repro.workloads import (
    build_memory_databases,
    federated_cluster,
    generate_source_federation,
    write_source_directory,
)

DISK_KINDS = ("sqlite", "csv", "json")

PLANS = [ShardPlan(shards) for shards in (1, 2, 3, 8)]


def _dataset():
    """A small generated federation with NULL and dangling references."""
    dataset = generate_source_federation(
        people_per_schema=18, records_per_person=2, seed=23
    )
    for schema in dataset.schemas:
        bulk = list(dataset.rows[schema])[-1]  # lookup, person, bulk
        rows = dataset.rows[schema][bulk]
        rows[1]["person_ssn"] = None  # NULL reference
        rows[4]["person_ssn"] = "nobody"  # dangling reference
    return dataset


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """Every backend's stores over the same dataset, plus a memory
    source whose deletes left tombstoned tuple numbers behind."""
    dataset = _dataset()
    built = {"memory": build_memory_databases(dataset)}
    root = tmp_path_factory.mktemp("sources")
    for kind in DISK_KINDS:
        write_source_directory(dataset, root / kind, kinds=kind)
        built[kind] = load_source_federation(root / kind)[1]
    edited = build_memory_databases(dataset)
    for store in edited.values():
        adapter = store.adapter
        for number in (2, 9, 10):
            adapter.delete_row("person", number)
        adapter.insert("person", {"ssn": "late-1", "name": None})
    built["memory-after-deletes"] = edited
    return built


def _classes(databases):
    for store in databases.values():
        for class_name in store.schema.class_names:
            yield store, class_name


@pytest.mark.parametrize("plan", PLANS, ids=lambda p: f"{p.kind}{p.shards}")
@pytest.mark.parametrize(
    "backend", ["memory", *DISK_KINDS, "memory-after-deletes"]
)
def test_shard_extent_is_the_filtered_extent(stores, backend, plan):
    for store, class_name in _classes(stores[backend]):
        full = store.extent(class_name)
        owners = collections.Counter()
        for spec in plan.specs():
            scoped = store.extent(class_name, spec)
            assert scoped == spec.filter_instances(full)
            assert store.direct_extent(class_name, spec) == scoped
            owners.update(instance.oid for instance in scoped)
        # the shards partition the extent: every OID owned exactly once
        assert owners == collections.Counter(instance.oid for instance in full)


def test_tombstoned_numbers_are_skipped(stores):
    store = stores["memory-after-deletes"]["university"]
    numbers = [instance.oid.number for instance in store.extent("person")]
    assert not {2, 9, 10} & set(numbers)
    assert max(numbers) == len(numbers) + 3  # the insert kept its own number


@pytest.mark.parametrize("plan", PLANS, ids=lambda p: f"{p.kind}{p.shards}")
def test_number_predicate_agrees_with_shard_of_oid(stores, plan):
    oids = [
        instance.oid
        for backend in ("memory", "memory-after-deletes")
        for store, class_name in _classes(stores[backend])
        for instance in store.extent(class_name)
    ]
    for spec in plan.specs():
        predicates = {}
        for oid in oids:
            coordinate = (oid.agent, oid.system, oid.database, oid.relation)
            if coordinate not in predicates:
                predicates[coordinate] = spec.number_predicate(*coordinate)
            expected = shard_of_oid(oid, plan.shards)
            assert predicates[coordinate](oid.number) == (expected == spec.index)
            assert spec.owns(oid) == (expected == spec.index)


@pytest.mark.parametrize("plan", [ShardPlan(3), ShardPlan(4)])
def test_object_database_extents_filter_by_the_same_rule(plan):
    _, _, databases = federated_cluster(schemas=2, per_class=9)
    for store in databases.values():
        for class_name in store.schema.class_names:
            full = store.extent(class_name)
            for spec in plan.specs():
                assert store.extent(class_name, spec) == spec.filter_instances(full)
                assert store.direct_extent(class_name, spec) == (
                    spec.filter_instances(store.direct_extent(class_name))
                )


@pytest.mark.parametrize("plan", [ShardPlan(4), ShardPlan(3)])
def test_transport_serves_the_scoped_slice(stores, plan):
    store = stores["sqlite"]["hospital"]
    agent = FSMAgent("agent-hospital", system="component")
    agent.host_source(store)
    transport = InProcessTransport({"agent-hospital": agent})
    full = store.extent("person")
    for spec in plan.specs():
        for op in ("direct_extent", "extent"):
            request = ScanRequest("agent-hospital", "hospital", "person", op, shard=spec)
            assert transport.perform(request) == spec.filter_instances(full)
    # one counted access per shard request, as for any scan
    assert agent.access_count == 2 * plan.shards


def test_hash_is_the_only_plan_kind():
    assert ShardPlan(4, "hash") == ShardPlan(4)
    with pytest.raises(RuntimeFederationError, match="unknown shard plan kind"):
        ShardPlan(4, "range")


# ---------------------------------------------------------------------------
# The ownership formula, written out: a sharded scan parses each OID with
# one rpartition, and must still pick exactly the owner this formula does.


def _reference_owner(identity, shards):
    """CRC32 of the dotted relation prefix mixed with the tuple number;
    a CRC of the string form for anything that is not an OID."""
    if shards <= 1:
        return 0
    if not isinstance(identity, OID):
        return zlib.crc32(str(identity).encode("utf-8")) % shards
    agent, system, database, relation, number = identity.parts()
    digest = zlib.crc32(f"{agent}.{system}.{database}.{relation}".encode("utf-8"))
    return (digest ^ ((number * 0x9E3779B1) & 0xFFFFFFFF)) % shards


class _Instance:
    def __init__(self, oid):
        self.oid = oid


def _identities():
    """3,200 OIDs over 24 relations, plus Skolem tokens and plain strings."""
    rng = random.Random(31)
    relations = [
        (f"agent{a}", system, f"db{d}", relation)
        for a in range(2)
        for system in ("sqlite", "memory")
        for d in range(2)
        for relation in ("person", "rel-b", "Fact_3")
    ][:24]
    oids = [
        OID(*rng.choice(relations), rng.randrange(0, 1 << 40))
        for _ in range(3_200)
    ]
    tokens = [("sk", "uncle", f"p{index}") for index in range(60)]
    return oids + tokens + [f"tok-{index}" for index in range(40)]


IDENTITIES = _identities()


@pytest.mark.parametrize("shards", range(1, 9))
def test_owners_agree_with_the_reference_formula(shards):
    expected = [_reference_owner(identity, shards) for identity in IDENTITIES]
    assert [shard_of_oid(identity, shards) for identity in IDENTITIES] == expected
    instances = [_Instance(identity) for identity in IDENTITIES]
    for index in range(shards):
        spec = ShardSpec(index, shards)
        owned = [owner == index for owner in expected]
        assert [spec.owns(identity) for identity in IDENTITIES] == owned
        assert spec.filter_instances(instances) == [
            instance for instance, mine in zip(instances, owned) if mine
        ]


@pytest.mark.parametrize(
    "identity, owners",
    [
        (OID("agent1", "memory", "S1", "person0", 1), [0, 1, 0, 3, 3, 3, 2, 3]),
        (
            OID("FSMagent1", "informix", "PatientDB", "patient-records", 5),
            [0, 1, 0, 3, 0, 3, 1, 3],
        ),
        (OID("big", "object", "BIG", "fact", 2047), [0, 1, 0, 1, 3, 3, 3, 1]),
        (("sk", "uncle", "John"), [0, 1, 2, 3, 4, 5, 2, 3]),
    ],
)
def test_owners_are_stable(identity, owners):
    """Owners persist in shard-granular cache files: pin a few."""
    assert [shard_of_oid(identity, shards) for shards in range(1, 9)] == owners


_names = st.sampled_from(["a", "b", "agent1", "person", "rel-b", "Z"])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(OID, _names, _names, _names, _names, st.integers(0, 10**6)),
        max_size=40,
    )
)
def test_oids_sort_by_their_parts(oids):
    assert sorted(oids) == sorted(oids, key=OID.parts)
    assert sorted(oids, reverse=True) == sorted(oids, key=OID.parts, reverse=True)
