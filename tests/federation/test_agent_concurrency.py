"""FSMAgent access accounting must stay exact under concurrent scans.

The autonomy property of the paper (§3) is *verified* through
``access_count`` — a lost update would silently corrupt the evidence,
so the counter is hammered from many threads here.
"""

from concurrent.futures import ThreadPoolExecutor

from repro.federation import FSMAgent
from repro.model import ClassDef, ObjectDatabase, Schema

THREADS = 16
SCANS_PER_THREAD = 200


def _agent():
    schema = Schema("S1")
    schema.add_class(ClassDef("person").attr("ssn#"))
    database = ObjectDatabase(schema, agent="h1")
    database.insert("person", {"ssn#": "1"})
    agent = FSMAgent("a1")
    agent.host_object_database(database)
    return agent


def test_access_count_is_exact_under_contention():
    agent = _agent()

    def hammer(_worker):
        for _ in range(SCANS_PER_THREAD):
            agent.fetch_direct_extent("S1", "person")

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        list(pool.map(hammer, range(THREADS)))
    assert agent.access_count == THREADS * SCANS_PER_THREAD
    assert agent.accessed_classes == {("S1", "person")}


def test_mixed_scan_kinds_all_counted():
    agent = _agent()

    def hammer(worker):
        for _ in range(SCANS_PER_THREAD):
            if worker % 2:
                agent.fetch_extent("S1", "person")
            else:
                agent.fetch_direct_extent("S1", "person")

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        list(pool.map(hammer, range(THREADS)))
    assert agent.access_count == THREADS * SCANS_PER_THREAD
