#!/usr/bin/env python3
"""A four-database enterprise federation (§3, Fig 1 and Fig 2).

The fullest tour of the architecture:

* **four component databases** on separate FSM-agents — two native
  object databases, one *relational* personnel database that enters
  through the §3 relational→OO transformation (tuples get
  ``<agent>.<system>.<db>.<relation>.<n>`` OIDs), and a fourth with a
  conflicting salary representation handled by a ``y = f(x)`` data
  mapping;
* **assertions of several kinds** — equivalence with composed-into and
  inclusion members, plain inclusion, intersection with an AIF;
* **multi-schema integration** with the Fig 2(a) accumulation strategy;
* **global queries** spanning everything.

Run:  python examples/university_federation.py
"""

from repro import FederationSession
from repro.federation import Column, FunctionMapping, SameObjectSpec
from repro.model import ClassDef, DataType, ObjectDatabase, Schema
from repro.sources import MemorySourceAdapter, RelationSpec


def build_sources():
    # S1: an OO database about people.
    s1 = Schema("S1")
    s1.add_class(
        ClassDef("person").attr("ssn#").attr("full_name").attr("city")
    )
    s1.add_class(
        ClassDef("professor", parents=["person"]).attr("chair")
    )
    db1 = ObjectDatabase(s1, agent="agent1")
    db1.insert("person", {"ssn#": "100", "full_name": "Ada L", "city": "London"})
    db1.insert("professor", {"ssn#": "101", "full_name": "Kurt G", "chair": "Logic"})

    # S2: another OO database, different vocabulary.
    s2 = Schema("S2")
    s2.add_class(ClassDef("human").attr("ssn#").attr("name").attr("street"))
    s2.add_class(ClassDef("employee", parents=["human"]).attr("dept"))
    db2 = ObjectDatabase(s2, agent="agent2")
    db2.insert("human", {"ssn#": "200", "name": "Alan T", "street": "Bletchley 1"})
    db2.insert("employee", {"ssn#": "201", "name": "Grace H", "dept": "Navy"})

    # S3: a *relational* personnel database (Informix, per the paper).
    rdb = MemorySourceAdapter(
        "StaffDB",
        {
            "staff": [
                {"ssn": "101", "staff_name": "Kurt G", "salary": 90},
                {"ssn": "300", "staff_name": "Emmy N", "salary": 80},
            ]
        },
        [
            RelationSpec(
                "staff",
                (
                    Column("ssn"),
                    Column("staff_name"),
                    Column("salary", DataType.INTEGER),
                ),
            )
        ],
        agent="agent3",
        system="informix",
    )

    # S4: grants, salaries stored in cents — fixed by a data mapping.
    s4 = Schema("S4")
    s4.add_class(
        ClassDef("grant_holder").attr("ssn#").attr("grant_cents", "integer")
    )
    db4 = ObjectDatabase(s4, agent="agent4")
    db4.insert("grant_holder", {"ssn#": "101", "grant_cents": 500000})

    return (s1, db1), (s2, db2), rdb, (s4, db4)


ASSERTIONS = """
# people across S1/S2 are the same concept
assertion S1.person == S2.human
  attr S1.person.ssn# == S2.human.ssn#
  attr S1.person.full_name == S2.human.name
  attr S1.person.city alpha(address) S2.human.street
end
assertion S1.professor <= S2.employee

# the relational staff are employees too (S3 entered as OO view)
assertion S3.staff <= S2.employee
  attr S3.staff.ssn == S2.employee.ssn#
end

# grant holders intersect the staff: shared people, merged money
assertion S3.staff ^ S4.grant_holder
  attr S3.staff.ssn == S4.grant_holder.ssn#
  attr S3.staff.salary ^ S4.grant_holder.grant_cents
end
"""


def main() -> None:
    (s1, db1), (s2, db2), rdb, (s4, db4) = build_sources()

    session = FederationSession()
    session.add_database(db1, agent_name="agent1")
    session.add_database(db2, agent_name="agent2")
    session.add_source(rdb.database("S3"), agent_name="agent3")
    session.add_database(db4, agent_name="agent4")

    session.declare(ASSERTIONS)
    session.identify("S3.staff.ssn", "S4.grant_holder.ssn#")
    # grant_cents → currency units before integration sees them:
    session.fsm.mappings.register(
        "salary_grant_cents", "S4", "grant_cents",
        FunctionMapping(lambda cents: cents // 100, "y = x / 100"),
    )

    integrated = session.integrate(strategy="accumulation")

    # Route agent access through the federation runtime: concurrent
    # fan-out over the four agents, each extent split across 2 shard
    # endpoints, with the extent cache keeping warm queries local.
    session.enable_runtime(shard_plan=2)

    print("=== integrated global schema ===")
    print(integrated.describe())

    engine = session.engine()
    merged_person = integrated.is_name("S1", "person")

    print(f"\n?- {merged_person}() -> ssn#   (people from S1 and S2)")
    values = engine.attribute_values(merged_person, "ssn#")
    print("   ", sorted(values))

    staff_name = integrated.is_name("S3", "staff")
    print(f"\n?- {staff_name}() -> staff_name   (from the relational DB)")
    for row in session.query(f"{staff_name}() -> staff_name"):
        print("   ", {k: v for k, v in row.items() if k != "oid"})
        print("      OID:", row["oid"], " <- the §3 five-part scheme")

    # The virtual intersection class staff ∩ grant_holder:
    common = next(
        (name for name in integrated.classes if "grant_holder" in name and "_" in name),
        None,
    )
    if common and integrated.cls(common).virtual:
        members = engine.instances_of(common)
        print(f"\nvirtual class {common} (Principle 3): {len(members)} member(s)")

    print("\n=== federation bookkeeping ===")
    for agent_name in ("agent1", "agent2", "agent3", "agent4"):
        agent = session.fsm.agent(agent_name)
        print(f"  {agent_name}: {agent.access_count} local accesses")

    # The runtime's own account of the same autonomy story: every
    # remote touch is an agent_scan (keyed per shard endpoint), warm
    # queries are cache_hits, and nothing went missing.
    stats = session.runtime_stats()
    print("\n=== runtime stats (cumulative) ===")
    print(stats.describe())
    session.runtime.close()


if __name__ == "__main__":
    main()
