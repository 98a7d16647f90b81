"""mode="async": same answers, same cache behaviour, same stats shape.

The async executor is a different engine, not different semantics: a
federated query must return identical rows, the warm run must perform
zero agent scans, and the ``--stats`` counters must agree with the
threaded mode on everything the event loop does not change.
"""

import io

import pytest

from repro.cli import main
from repro.core.session import FederationSession
from repro.errors import RuntimeFederationError
from repro.runtime import (
    AsyncInProcessTransport,
    AsyncSimulatedNetworkTransport,
    FaultProfile,
    FederationRuntime,
    InProcessTransport,
    RuntimePolicy,
)
from repro.workloads import federated_cluster

QUERY = "person0() -> ssn#"


def _answers(rows):
    return sorted(str(row.get("ssn#")) for row in rows)


class TestModeSwitch:
    def test_unknown_mode_is_rejected(self, cluster_builder):
        fsm = cluster_builder()
        for mode in ("fibers", "multiprocess"):
            with pytest.raises(RuntimeFederationError, match="unknown runtime mode"):
                fsm.use_runtime(mode=mode)

    def test_async_transport_needs_async_mode(self, cluster_fsm):
        transport = AsyncInProcessTransport(
            cluster_fsm._agents, cluster_fsm._schema_host
        )
        with pytest.raises(RuntimeFederationError, match="mode='async'"):
            FederationRuntime(transport=transport, mode="threaded")

    def test_sync_transport_is_adapted_into_async_mode(self, cluster_fsm):
        transport = InProcessTransport(
            cluster_fsm._agents, cluster_fsm._schema_host
        )
        runtime = FederationRuntime(transport=transport, mode="async")
        assert runtime.mode == "async"
        cluster_fsm.use_runtime(runtime=runtime)
        assert _answers(cluster_fsm.query(QUERY))
        runtime.close()


class TestAnswerParity:
    def test_async_and_threaded_agree_on_the_cluster_workload(
        self, cluster_builder
    ):
        threaded_fsm = cluster_builder()
        threaded_fsm.use_runtime(RuntimePolicy(max_workers=8))
        async_fsm = cluster_builder()
        async_fsm.use_runtime(RuntimePolicy(max_workers=8), mode="async")
        try:
            assert _answers(threaded_fsm.query(QUERY)) == _answers(
                async_fsm.query(QUERY)
            )
        finally:
            async_fsm.runtime.close()

    def test_appendix_b_agrees_across_modes(self, cluster_builder):
        from repro.federation.query import FederatedQuery

        query = FederatedQuery.parse(QUERY)
        threaded_fsm = cluster_builder()
        threaded_fsm.use_runtime()
        async_fsm = cluster_builder()
        async_fsm.use_runtime(mode="async")
        try:
            assert _answers(query.run(threaded_fsm.appendix_b())) == _answers(
                query.run(async_fsm.appendix_b())
            )
        finally:
            async_fsm.runtime.close()

    def test_cache_behaviour_is_identical_across_modes(self, cluster_builder):
        per_mode = {}
        for mode in ("threaded", "async"):
            fsm = cluster_builder()
            runtime = fsm.use_runtime(RuntimePolicy(max_workers=8), mode=mode)
            fsm.query(QUERY)
            cold = fsm.last_query_stats
            fsm.query(QUERY)
            warm = fsm.last_query_stats
            per_mode[mode] = (cold, warm)
            if mode == "async":
                runtime.close()
        for mode, (cold, warm) in per_mode.items():
            assert warm.counter("agent_scans") == 0, mode
            assert warm.counter("cache_misses") == 0, mode
        threaded_cold, async_cold = per_mode["threaded"][0], per_mode["async"][0]
        for counter in ("agent_scans", "cache_misses", "cache_hits", "requests"):
            assert threaded_cold.counter(counter) == async_cold.counter(counter)
        threaded_warm, async_warm = per_mode["threaded"][1], per_mode["async"][1]
        assert threaded_warm.counter("cache_hits") == async_warm.counter(
            "cache_hits"
        )

    def test_partial_degradation_matches_threaded_semantics(self, cluster_builder):
        fsm = cluster_builder()
        transport = AsyncSimulatedNetworkTransport(
            AsyncInProcessTransport(fsm._agents, fsm._schema_host)
        )
        transport.set_profile("agent2", FaultProfile(fail_times=100))
        runtime = FederationRuntime(
            transport=transport,
            policy=RuntimePolicy(max_retries=1, backoff_base=0.0),
            mode="async",
        )
        fsm.use_runtime(runtime=runtime)
        try:
            rows = fsm.query(QUERY)
        finally:
            runtime.close()
        warnings = runtime.drain_warnings()
        assert warnings and "agent2" in " ".join(warnings)
        assert rows  # surviving agents still answer
        assert all("S2" not in str(row.get("ssn#")) for row in rows)


class TestSessionAndCli:
    def test_session_enables_async_runtime(self):
        built, text, databases = federated_cluster(schemas=3, per_class=4)
        session = FederationSession()
        for schema in built:
            session.add_database(databases[schema.name])
        session.declare(text)
        session.integrate()
        runtime = session.enable_runtime(mode="async")
        assert runtime.mode == "async"
        try:
            rows = session.query(QUERY)
        finally:
            runtime.close()
        assert rows and session.last_query_stats.counter("agent_scans") > 0

    def test_cli_async_flag_matches_threaded_answers(self):
        outputs = {}
        for flag in ([], ["--mode", "async"]):
            out = io.StringIO()
            status = main(
                ["query", QUERY, "--demo", "cluster", *flag, "--stats"], out=out
            )
            assert status == 0
            outputs[bool(flag)] = out.getvalue()
        threaded_rows = sorted(
            line for line in outputs[False].splitlines() if "ssn#=" in line
        )
        async_rows = sorted(
            line for line in outputs[True].splitlines() if "ssn#=" in line
        )
        assert threaded_rows == async_rows
        assert "agent_scans" in outputs[True]

    def test_cli_async_repeat_hits_the_cache(self):
        out = io.StringIO()
        status = main(
            [
                "query",
                QUERY,
                "--demo",
                "cluster",
                "--mode",
                "async",
                "--max-inflight",
                "16",
                "--repeat",
                "2",
                "--stats",
            ],
            out=out,
        )
        assert status == 0
        text = out.getvalue()
        assert "run 2" in text and "agent_scans=0" in text
