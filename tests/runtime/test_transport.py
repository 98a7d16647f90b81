"""Agent transports: in-process calls and the simulated network."""

import pytest

from repro.errors import RegistrationError, TransportError
from repro.federation import FSMAgent
from repro.model import ClassDef, ObjectDatabase, Schema
from repro.runtime import (
    FaultProfile,
    InProcessTransport,
    ScanRequest,
    SimulatedNetworkTransport,
)


@pytest.fixture
def agents():
    schema = Schema("S1")
    schema.add_class(ClassDef("person").attr("ssn#").attr("name"))
    database = ObjectDatabase(schema, agent="h1")
    database.insert("person", {"ssn#": "1", "name": "ann"})
    database.insert("person", {"ssn#": "2", "name": "bob"})
    agent = FSMAgent("a1")
    agent.host_object_database(database)
    return {"a1": agent}


class TestScanRequest:
    def test_unknown_op_rejected(self):
        with pytest.raises(TransportError, match="unknown scan op"):
            ScanRequest("a1", "S1", "person", op="explode")

    def test_cache_key_is_agent_schema_class(self):
        request = ScanRequest("a1", "S1", "person", "extent")
        assert request.cache_key == ("a1", "S1", "person")


class TestInProcessTransport:
    def test_performs_all_ops(self, agents):
        transport = InProcessTransport(agents)
        extent = transport.perform(ScanRequest("a1", "S1", "person"))
        assert len(extent) == 2
        full = transport.perform(ScanRequest("a1", "S1", "person", "extent"))
        assert sorted(instance["name"] for instance in full) == ["ann", "bob"]

    def test_counts_agent_accesses(self, agents):
        transport = InProcessTransport(agents)
        transport.perform(ScanRequest("a1", "S1", "person"))
        assert agents["a1"].access_count == 1

    def test_agent_for_schema(self, agents):
        transport = InProcessTransport(agents)
        assert transport.agent_for_schema("S1") == "a1"
        with pytest.raises(RegistrationError):
            transport.agent_for_schema("S9")

    def test_generation_follows_database_version(self, agents):
        transport = InProcessTransport(agents)
        request = ScanRequest("a1", "S1", "person")
        before = transport.generation(request)
        agents["a1"].database("S1").insert("person", {"ssn#": "3", "name": "cid"})
        assert transport.generation(request) == before + 1


class TestSimulatedNetworkTransport:
    def test_flaky_script_fails_then_succeeds(self, agents):
        simulated = SimulatedNetworkTransport(InProcessTransport(agents))
        simulated.set_profile("a1", FaultProfile(fail_times=2))
        request = ScanRequest("a1", "S1", "person")
        for _ in range(2):
            with pytest.raises(TransportError, match="injected failure"):
                simulated.perform(request)
        assert len(simulated.perform(request)) == 2

    def test_scripts_are_per_request(self, agents):
        simulated = SimulatedNetworkTransport(InProcessTransport(agents))
        simulated.set_profile("a1", FaultProfile(fail_times=1))
        first = ScanRequest("a1", "S1", "person")
        second = ScanRequest("a1", "S1", "person", "extent")
        with pytest.raises(TransportError):
            simulated.perform(first)
        with pytest.raises(TransportError):
            simulated.perform(second)  # its own fresh failure budget
        assert len(simulated.perform(first)) == 2
        assert len(simulated.perform(second)) == 2

    def test_reset_scripts_restores_failures(self, agents):
        simulated = SimulatedNetworkTransport(InProcessTransport(agents))
        simulated.set_profile("a1", FaultProfile(fail_times=1))
        request = ScanRequest("a1", "S1", "person")
        with pytest.raises(TransportError):
            simulated.perform(request)
        simulated.perform(request)
        simulated.reset_scripts()
        with pytest.raises(TransportError):
            simulated.perform(request)

    def test_drops_are_transport_errors(self, agents):
        simulated = SimulatedNetworkTransport(
            InProcessTransport(agents), FaultProfile(drop_rate=1.0)
        )
        with pytest.raises(TransportError, match="dropped"):
            simulated.perform(ScanRequest("a1", "S1", "person"))

    def test_latency_uses_injected_clock(self, agents):
        naps = []
        simulated = SimulatedNetworkTransport(
            InProcessTransport(agents),
            FaultProfile(latency=0.25),
            clock=naps.append,
        )
        simulated.perform(ScanRequest("a1", "S1", "person"))
        assert naps == [0.25]

    def test_call_histogram(self, agents):
        simulated = SimulatedNetworkTransport(InProcessTransport(agents))
        request = ScanRequest("a1", "S1", "person")
        simulated.perform(request)
        simulated.perform(request)
        assert simulated.calls["a1"] == 2


class TestSideTableBounds:
    """Regression: long-running traffic must not grow the simulator's
    per-request attempt table (or sharding's relation-digest memo)
    without bound."""

    def test_healthy_traffic_records_no_attempt_history(self, agents):
        simulated = SimulatedNetworkTransport(InProcessTransport(agents))
        for index in range(50):
            simulated.perform(
                ScanRequest("a1", "S1", "person", "extent")
                if index % 2
                else ScanRequest("a1", "S1", "person")
            )
        assert len(simulated._attempts) == 0

    def test_scripted_attempt_history_is_bounded(self, agents):
        from repro.runtime.transport import MAX_SCRIPT_ENTRIES, _prune_scripts

        attempts = {("req", index): 1 for index in range(MAX_SCRIPT_ENTRIES + 100)}
        _prune_scripts(attempts, MAX_SCRIPT_ENTRIES)
        assert len(attempts) == MAX_SCRIPT_ENTRIES
        # the oldest entries went first; the newest survive
        assert ("req", MAX_SCRIPT_ENTRIES + 99) in attempts
        assert ("req", 0) not in attempts

    def test_relation_digest_memo_is_bounded(self):
        from repro.runtime.sharding import _relation_digest

        assert _relation_digest.cache_info().maxsize is not None


class TestPerItemTransferPricing:
    """Regression: per-item transfer pricing used ``len(result)`` with a
    blanket ``per_item * 1`` fallback, so any non-sized payload — a
    whole batch value, or an absent (``None``) granule value inside a
    batch — was priced as exactly one item no matter how many rows it
    carried.  Pricing now goes through :func:`transfer_item_count`:
    batches charge the total items their granules carry and ``None``
    carries nothing."""

    @staticmethod
    def _simulated(agents, naps):
        return SimulatedNetworkTransport(
            InProcessTransport(agents),
            FaultProfile(per_item=1.0),
            clock=naps.append,
        )

    def test_batch_round_trip_charges_total_items_carried(self, agents):
        from repro.runtime import BatchScanRequest

        naps = []
        simulated = self._simulated(agents, naps)
        batch = BatchScanRequest(
            (
                ScanRequest("a1", "S1", "person"),  # 2 instances
                ScanRequest("a1", "S1", "person", "extent"),  # 2 instances
            )
        )
        result = simulated.perform(batch)
        assert len(result) == 4
        assert naps == [4.0]

    def test_batch_pricing_equals_singleton_sum(self, agents):
        from repro.runtime import BatchScanRequest

        naps = []
        simulated = self._simulated(agents, naps)
        granules = (
            ScanRequest("a1", "S1", "person"),
            ScanRequest("a1", "S1", "person", "extent"),
        )
        simulated.perform(BatchScanRequest(granules))
        batched = sum(naps)
        naps.clear()
        for granule in granules:
            simulated.perform(granule)
        assert batched == sum(naps)

    def test_changes_stays_unpriced_control_plane(self, agents):
        naps = []
        simulated = self._simulated(agents, naps)
        request = ScanRequest("a1", "S1", "person")
        agents["a1"].database("S1").insert("person", {"ssn#": "3", "name": "cid"})
        simulated.changes(request, since=0)
        simulated.generation(request)
        assert naps == []

    def test_transfer_item_count_vocabulary(self):
        from repro.runtime import BatchScanResult
        from repro.runtime.transport import transfer_item_count

        class Opaque:
            pass

        assert transfer_item_count(None) == 0
        assert transfer_item_count([1, 2, 3]) == 3
        assert transfer_item_count({"a", "b"}) == 2
        assert transfer_item_count(Opaque()) == 1
        nested = BatchScanResult(([1, 2], BatchScanResult(({"x"}, None))))
        assert transfer_item_count(nested) == 3
        assert len(nested) == 3
