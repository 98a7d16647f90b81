"""FederationRepository: tenant registry, shared loop, graceful shutdown."""

import pytest

from repro.errors import ServiceClosedError, ServiceError, UnknownTenantError
from repro.service import FederationRepository, TenantConfig

QUERY = {"query": "uncle(niece_nephew='John') -> Ussn#"}


@pytest.fixture
def repository():
    repo = FederationRepository(drain_timeout=5.0)
    yield repo
    repo.close()


class TestRegistry:
    def test_add_and_list_tenants(self, repository):
        repository.add_tenant(TenantConfig(name="a"))
        repository.add_tenant(TenantConfig(name="b", demo="cluster"))
        assert repository.tenant_ids() == ["a", "b"]

    def test_duplicate_tenant_rejected(self, repository):
        repository.add_tenant(TenantConfig(name="a"))
        with pytest.raises(ServiceError):
            repository.add_tenant(TenantConfig(name="a"))

    def test_unknown_tenant_raises(self, repository):
        with pytest.raises(UnknownTenantError):
            repository.tenant("ghost")
        with pytest.raises(UnknownTenantError):
            repository.query("ghost", QUERY)

    def test_async_tenants_share_the_repository_loop(self, repository):
        a = repository.add_tenant(TenantConfig(name="a", mode="async"))
        b = repository.add_tenant(TenantConfig(name="b", mode="async"))
        assert a.runtime.executor._runner is repository.loop
        assert b.runtime.executor._runner is repository.loop

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            TenantConfig(name="")
        with pytest.raises(ServiceError):
            TenantConfig(name="x", demo="nope")
        with pytest.raises(ServiceError):
            TenantConfig(name="x", schemas=("a.schema",))  # no assertions
        with pytest.raises(ServiceError):
            TenantConfig(name="x", max_inflight=0)
        # an explicit demo next to another source is refused, not dropped
        with pytest.raises(ServiceError, match="exclusive"):
            TenantConfig(name="x", demo="cluster", source_dir="federation")
        # one schema file fails here, not deep inside declare()
        with pytest.raises(ServiceError, match="at least two schema files"):
            TenantConfig(name="x", schemas=("a.schema",), assertions="a.dsl")


class TestOperations:
    def test_query_returns_rows_and_accounting(self, repository):
        repository.add_tenant(TenantConfig(name="a"))
        answer = repository.query("a", QUERY)
        assert answer["tenant"] == "a"
        assert answer["count"] == 1
        assert answer["rows"][0]["Ussn#"] == "B1"
        assert answer["evaluator"] == "bottom_up"
        assert answer["elapsed_ms"] > 0
        assert answer["stats"]["counters"]["agent_scans"] >= 1
        assert "agent-S1" in answer["stats"]["agent_scans"]

    def test_query_appendix_b_evaluator(self, repository):
        repository.add_tenant(TenantConfig(name="a"))
        answer = repository.query(
            "a", {**QUERY, "appendix_b": True}
        )
        assert answer["evaluator"] == "appendix_b"
        assert answer["count"] == 1

    def test_stats_document(self, repository):
        repository.add_tenant(TenantConfig(name="a"))
        repository.query("a", QUERY)
        doc = repository.stats("a")
        assert doc["tenant"] == "a"
        assert doc["tenant_info"]["queries"] == 1
        assert doc["tenant_info"]["mode"] == "async"
        assert doc["stats"]["counters"]["agent_scans"] >= 1

    def test_invalidate_and_bump(self, repository):
        repository.add_tenant(TenantConfig(name="a"))
        repository.query("a", QUERY)
        dropped = repository.invalidate("a", {})
        assert dropped["dropped"] >= 1
        bumped = repository.bump("a")
        assert bumped["generation"] == 1

    def test_invalidate_rejects_non_object_body(self, repository):
        repository.add_tenant(TenantConfig(name="a"))
        with pytest.raises(ServiceError):
            repository.invalidate("a", [1, 2])

    def test_health_census(self, repository):
        repository.add_tenant(TenantConfig(name="a"))
        doc = repository.health()
        assert doc["status"] == "ok"
        assert doc["loop_alive"] is False  # the shared loop starts lazily
        assert doc["inflight"] == 0
        assert set(doc["tenants"]) == {"a"}
        repository.query("a", QUERY)  # first async scan spins the loop up
        assert repository.health()["loop_alive"] is True


class TestLifecycle:
    def test_close_is_idempotent_and_refuses_new_work(self):
        repository = FederationRepository()
        repository.add_tenant(TenantConfig(name="a"))
        repository.query("a", QUERY)
        repository.close()
        repository.close()  # second close is a no-op
        assert repository.closed
        with pytest.raises(ServiceClosedError):
            repository.query("a", QUERY)
        with pytest.raises(ServiceClosedError):
            repository.add_tenant(TenantConfig(name="b"))

    def test_close_stops_the_shared_loop_and_runtimes(self):
        repository = FederationRepository()
        tenant = repository.add_tenant(TenantConfig(name="a", mode="async"))
        repository.query("a", QUERY)
        repository.close()
        assert not repository.loop.alive
        assert tenant.runtime.closed
        assert repository.health()["status"] == "closing"
