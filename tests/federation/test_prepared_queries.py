"""Prepared query shapes answer like a fresh FSM, call after call.

``FSM.query`` plans and compiles a query shape once and binds each
call's constants to that plan and goal.  Across the
threaded and async engines, with the extent cache on, off, and sharded,
every call must still answer what a fresh FSM answers, byte for byte:
with other constants, after a source write, after a re-integration, a
mapping registration or a new agent, and from eight threads at once.
"""

import json
import sys
import threading

import pytest

from repro.errors import LogicError
from repro.federation.agent import FSMAgent
from repro.federation.fsm import FSM
from repro.federation.mappings import FunctionMapping
from repro.federation.prepared import PREPARED_SHAPES
from repro.federation.query import FederatedQuery
from repro.runtime import RuntimePolicy, ShardPlan
from repro.service import rows_to_json
from repro.sources import load_source_federation
from repro.workloads import generate_source_federation, source_fsm, write_source_directory
from repro.workloads.source_scenarios import SOURCE_SYSTEM

#: (engine, cache on, shard count)
CONFIGS = {
    "threaded-cache": ("threaded", True, None),
    "async-cache": ("async", True, None),
    "threaded-nocache": ("threaded", False, None),
    "async-nocache": ("async", False, None),
    "threaded-sharded": ("threaded", False, 4),
    "async-sharded-cache": ("async", True, 2),
}

LEVELS = "person(level={}) -> ssn, name"


def _json(rows):
    return json.dumps(rows_to_json(rows))


class Federation:
    """One sqlite federation on disk; FSMs over it in one configuration."""

    def __init__(self, directory, config):
        self.mode, self.cache, self.shards = CONFIGS[config]
        dataset = generate_source_federation(
            people_per_schema=6, records_per_person=2, seed=5
        )
        write_source_directory(dataset, directory, kinds="sqlite")
        self.directory = directory
        self.runtimes = []
        self.fsm, self.databases = self.build()

    def build(self, integrate=True):
        text, databases = load_source_federation(self.directory)
        fsm = source_fsm(databases, text)
        if integrate:
            fsm.integrate_all()
        self.attach(fsm)
        return fsm, databases

    def attach(self, fsm):
        options = {"mode": self.mode}
        if self.shards:
            options["shard_plan"] = ShardPlan(self.shards, "hash")
        policy = RuntimePolicy(max_workers=2, cache_enabled=self.cache)
        self.runtimes.append(fsm.use_runtime(policy, **options))

    def fresh(self, text):
        """What a newly built FSM answers to *text*, serialized."""
        fsm, _ = self.build()
        return _json(fsm.query(text))

    def close(self):
        for runtime in self.runtimes:
            runtime.close()


@pytest.fixture(params=sorted(CONFIGS))
def federation(request, tmp_path):
    built = Federation(tmp_path, request.param)
    try:
        yield built
    finally:
        built.close()


def test_one_shape_with_other_constants_answers_like_a_fresh_fsm(federation):
    fsm = federation.fsm
    texts = [LEVELS.format(level) for level in (1, 3, 5, 3)] + [
        "person(ssn='university-2') -> name, level",
        "person(ssn='hospital-4') -> name, level",
    ]
    for text in texts:
        assert _json(fsm.query(text)) == federation.fresh(text), text
    assert len(fsm._shapes) == 2  # two shapes, six calls


def test_an_unhashable_constant_is_refused_on_a_prepared_shape_too(federation):
    fsm = federation.fsm
    query = FederatedQuery.of("person", {"level": [1, 2]}, ["ssn", "name"])
    with pytest.raises(LogicError, match="hashable"):
        fsm.query(query)  # the shape is not prepared yet
    assert fsm.query(LEVELS.format(2))
    with pytest.raises(LogicError, match="hashable"):
        fsm.query(query)  # the shape is prepared
    assert _json(fsm.query(LEVELS.format(2))) == federation.fresh(LEVELS.format(2))


def test_a_sqlite_write_between_two_reads_is_seen(federation):
    fsm = federation.fsm
    text = LEVELS.format(5)
    before = fsm.query(text)
    federation.databases["university"].adapter.update_row("person", 2, {"level": 5})
    after = fsm.query(text)
    assert len(after) == len(before) + 1
    # a delta-patched slice iterates in another order than a fresh lift
    assert sorted(rows_to_json(after), key=repr) == sorted(
        json.loads(federation.fresh(text)), key=repr
    )


def test_reintegration_takes_effect_on_the_next_call(federation):
    fsm = federation.fsm
    people, trades = "person() -> ssn", "trade() -> qty, person_ssn"
    fsm.integrate_all(order=["university", "hospital"])
    two = fsm.query(people)
    assert fsm.query(trades) == []  # market is not integrated yet
    fsm.integrate_all()
    three = fsm.query(people)
    assert len(three) > len(two)
    assert _json(three) == federation.fresh(people)
    assert fsm.query(trades)
    assert _json(fsm.query(trades)) == federation.fresh(trades)


def test_a_mapping_registration_takes_effect_on_the_next_call(federation):
    fsm = federation.fsm
    text = "person(ssn='UNIVERSITY-1') -> name"
    assert fsm.query(text) == []
    # lifted values change, and a cache-off plan may no longer narrow on ssn
    fsm.mappings.register("ssn", "university", "ssn", FunctionMapping(str.upper, "upper"))
    [row] = fsm.query(text)
    assert row["name"] == "uni-name-1"


def test_a_new_agent_takes_effect_on_the_next_call(federation):
    text = "person() -> ssn"
    fsm = FSM()
    for name in ("university", "hospital"):
        agent = FSMAgent(f"agent-{name}", system=SOURCE_SYSTEM)
        agent.host_source(federation.databases[name])
        fsm.register_agent(agent)
    fsm.integrated = federation.fsm.integrated
    federation.attach(fsm)
    two = fsm.query(text)
    market = FSMAgent("agent-market", system=SOURCE_SYSTEM)
    market.host_source(federation.databases["market"])
    fsm.register_agent(market)
    three = fsm.query(text)
    assert len(three) > len(two)
    assert _json(three) == _json(federation.fsm.query(text))
    assert ("market", "person") in fsm.runtime.last_plan.pairs


def test_each_call_plans_with_its_own_constants(federation):
    fsm = federation.fsm
    for level in (1, 4, 2):
        fsm.query(LEVELS.format(level))
        plan = fsm.runtime.last_plan
        if federation.cache:
            assert plan.selections == {}
        else:
            assert plan.selections == {
                origin: (("level", level),) for origin in plan.selections
            }
            assert len(plan.selections) == 3


def test_the_lru_stays_within_its_bound(federation):
    fsm = federation.fsm
    for index in range(2000):
        fsm.query(f"person() -> a{index}")
        assert len(fsm._shapes) <= PREPARED_SHAPES
    assert len(fsm._shapes) == PREPARED_SHAPES
    assert _json(fsm.query(LEVELS.format(4))) == federation.fresh(LEVELS.format(4))


def test_eight_threads_on_one_shape_get_the_serial_answers(federation):
    fsm = federation.fsm
    texts = [LEVELS.format(level) for level in range(1, 6)]
    serial = {text: _json(fsm.query(text)) for text in texts}
    start = threading.Barrier(8)
    mismatches = []
    errors = []

    def reader(offset):
        try:
            start.wait()
            for round_index in range(20):
                text = texts[(offset + round_index) % len(texts)]
                if _json(fsm.query(text)) != serial[text]:
                    mismatches.append(text)
        except Exception as error:  # reported below, not swallowed
            errors.append(error)

    threads = [threading.Thread(target=reader, args=(index,)) for index in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: races show sooner
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert mismatches == []
