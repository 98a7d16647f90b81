"""Multiprocess-mode parity: worker processes must never change answers.

``mode="multiprocess"`` re-routes shard extent scans through a
spawn-based :class:`ProcessPoolExecutor` whose workers rebuild every
hosted store from a picklable spec and answer in pickled instance
lists; these tests pin that against the threaded and async twins the
answers are byte-identical — sharded and unsharded, cold and warm, with
§3 data mappings, NULLs and OID references in the extents — that
component writes rebuild stale worker snapshots, and that disk-backed
source adapters rehydrate inside workers from their manifest
description.

Pools here are deliberately small (two workers): the point is parity,
not throughput — E-R9 in ``benchmarks/`` owns the scaling claim.
"""

import pytest

from repro.errors import RuntimeFederationError, TransportError
from repro.runtime import (
    InProcessTransport,
    ProcessPoolTransport,
    RuntimePolicy,
    ScanRequest,
    ShardPlan,
    SimulatedNetworkTransport,
    wrap_multiprocess,
)
from repro.workloads import build_memory_databases, generate_source_federation, source_fsm

QUERY = "person0() -> ssn#"


def _rows_key(rows):
    return sorted(
        sorted((name, repr(value)) for name, value in row.items()) for row in rows
    )


def _policy():
    return RuntimePolicy(max_workers=2)


def _answers(rows):
    return sorted(row["ssn#"] for row in rows)


class TestMultiprocessAnswerParity:
    @pytest.mark.parametrize("plan", [None, ShardPlan(2)])
    def test_matches_threaded_and_async_cold_and_warm(self, cluster_builder, plan):
        expectations = {}
        for mode in ("threaded", "async", "multiprocess"):
            fsm = cluster_builder(schemas=3, per_class=4)
            runtime = fsm.use_runtime(_policy(), mode=mode, shard_plan=plan)
            try:
                cold = _answers(fsm.query(QUERY))
                assert cold  # a vacuous parity proves nothing
                assert fsm.last_query_stats.counter("agent_scans") > 0
                warm = _answers(fsm.query(QUERY))
                assert fsm.last_query_stats.counter("agent_scans") == 0
                expectations[mode] = (cold, warm)
            finally:
                runtime.close()
        assert expectations["multiprocess"] == expectations["threaded"]
        assert expectations["multiprocess"] == expectations["async"]

    def test_component_write_rebuilds_the_stale_worker_snapshot(
        self, cluster_builder
    ):
        fsm = cluster_builder(schemas=3, per_class=4)
        runtime = fsm.use_runtime(_policy(), mode="multiprocess")
        pool = runtime.transport
        try:
            before = _answers(fsm.query(QUERY))
            assert pool.rebuilds == 1
            fsm.database("S1").insert(
                "person0", {"ssn#": "S1-mp-new", "name": "new", "grade": 1}
            )
            after = _answers(fsm.query(QUERY))
            assert "S1-mp-new" in after
            assert len(after) == len(before) + 1
            # the write either rode the parent-side delta feed (no pool
            # dispatch needed) or forced exactly one snapshot rebuild —
            # never a stale answer
            assert pool.rebuilds in (1, 2)
        finally:
            runtime.close()

    def test_closed_runtime_refuses_dispatch(self, cluster_builder):
        fsm = cluster_builder(schemas=2, per_class=2)
        runtime = fsm.use_runtime(_policy(), mode="multiprocess")
        pool = runtime.transport
        assert _answers(fsm.query(QUERY))
        runtime.close()
        with pytest.raises(TransportError, match="closed"):
            pool.perform(ScanRequest("agent1", "S1", "person0"))


class TestSourceFederationParity:
    """Generated sources carry §3 data mappings (fuzzy and linear level
    encodings, a default fill for NULL names), NULL column values and
    OID references to lookup and person rows; every one must cross the
    worker pickles unchanged."""

    QUERIES = (
        "person() -> ssn, name, level",
        "person() -> ssn, dept",
        "enrollment() -> course, mark, person_ssn",
        "visit() -> day, cost, person_ssn",
    )
    EXTENTS = (
        ("university", "person"),
        ("university", "enrollment"),
        ("hospital", "visit"),
    )

    @staticmethod
    def _dataset():
        dataset = generate_source_federation(
            people_per_schema=8, records_per_person=1, seed=5
        )
        # NULL values the mappings do not fill: kept, never dropped
        dataset.rows["university"]["enrollment"][0]["mark"] = None
        dataset.rows["hospital"]["visit"][1]["day"] = None
        return dataset

    def _observe(self, plan, mode):
        dataset = self._dataset()
        fsm = source_fsm(build_memory_databases(dataset), dataset.assertions)
        fsm.integrate_all()
        runtime = fsm.use_runtime(_policy(), mode=mode, shard_plan=plan)
        try:
            rows = [_rows_key(fsm.query(query)) for query in self.QUERIES]
            extents = [
                sorted(
                    (
                        repr(instance.oid),
                        instance.class_name,
                        repr(sorted(instance.attributes.items())),
                        repr(sorted(instance.aggregations.items())),
                    )
                    for instance in runtime.direct_extent(schema, class_name)
                )
                for schema, class_name in self.EXTENTS
            ]
        finally:
            runtime.close()
        return rows, extents

    @pytest.mark.parametrize("plan", [None, ShardPlan(2)])
    def test_mapped_rows_and_extents_match_threaded(self, plan):
        observed = self._observe(plan, "multiprocess")
        assert observed == self._observe(plan, "threaded")
        assert observed == self._observe(None, "threaded")
        rows, extents = observed
        assert all(rows)  # a vacuous parity proves nothing
        flat = repr(rows) + repr(extents)
        assert "'unknown'" in flat  # a default-filled NULL name
        assert "('mark', None)" in flat and "('day', None)" in flat
        assert "relation='department'" in flat  # an OID reference


class TestWorkerRehydration:
    def test_sqlite_sources_rehydrate_inside_workers(self, tmp_path):
        from repro.sources import load_source_federation
        from repro.workloads import (
            generate_source_federation,
            source_fsm,
            write_source_directory,
        )

        dataset = generate_source_federation(
            people_per_schema=5, records_per_person=1, seed=7
        )
        write_source_directory(dataset, tmp_path, kinds="sqlite")

        text, databases = load_source_federation(tmp_path)
        baseline = source_fsm(databases, text)
        baseline.integrate_all()
        baseline.use_runtime(_policy())
        expected = sorted(
            row["ssn"] for row in baseline.query("person() -> ssn")
        )
        assert expected
        baseline.runtime.close()

        text, databases = load_source_federation(tmp_path)
        fsm = source_fsm(databases, text)
        fsm.integrate_all()
        runtime = fsm.use_runtime(_policy(), mode="multiprocess")
        try:
            answers = sorted(row["ssn"] for row in fsm.query("person() -> ssn"))
            assert answers == expected
            assert fsm.last_query_stats.counter("agent_scans") > 0
        finally:
            runtime.close()


class TestTransportSplicing:
    def test_wrapper_chains_keep_observing_dispatches(self, cluster_builder):
        # wrap_multiprocess must replace the *innermost* hop: a simulated
        # network wrapped around the registry still prices/counts every
        # pool dispatch
        fsm = cluster_builder(schemas=2, per_class=2)
        registry = InProcessTransport(fsm._agents, fsm._schema_host)
        simulated = SimulatedNetworkTransport(registry)
        spliced = wrap_multiprocess(simulated, workers=2)
        assert spliced is simulated
        assert isinstance(simulated._inner, ProcessPoolTransport)
        try:
            extent = simulated.perform(ScanRequest("agent1", "S1", "person0"))
            assert len(extent) > 0
            assert simulated.calls["agent1"] == 1
        finally:
            simulated._inner.close()

    def test_wrap_is_idempotent(self, cluster_builder):
        fsm = cluster_builder(schemas=2, per_class=2)
        registry = InProcessTransport(fsm._agents, fsm._schema_host)
        wrapped = wrap_multiprocess(registry, workers=2)
        assert wrap_multiprocess(wrapped, workers=2) is wrapped
        wrapped.close()

    def test_chain_without_registry_is_rejected(self):
        class Opaque:
            _inner = None

        with pytest.raises(RuntimeFederationError, match="in-process"):
            wrap_multiprocess(Opaque())
