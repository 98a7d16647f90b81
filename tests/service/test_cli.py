"""CLI surfaces of the service PR: query --json, serve, tenant specs."""

import io
import json
import http.client
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import _parse_tenant_spec, main
from repro.errors import ServiceError

QUERY = "uncle(niece_nephew='John') -> Ussn#"


def _loop_threads():
    return [
        thread
        for thread in threading.enumerate()
        if thread.name == "fsm-async-loop" and thread.is_alive()
    ]


class TestQueryJson:
    def _run(self, *argv):
        out = io.StringIO()
        status = main(list(argv), out=out)
        return status, out.getvalue()

    def test_json_document_shape(self):
        status, text = self._run(
            "query", QUERY, "--demo", "genealogy", "--json", "--stats"
        )
        assert status == 0
        document = json.loads(text)
        assert document["query"] == QUERY
        assert document["count"] == 1
        assert document["rows"][0]["Ussn#"] == "B1"
        assert document["evaluator"] == "bottom_up"
        assert document["warnings"] == []
        assert document["runs"][0]["agent_scans"] >= 1
        # the stats vocabulary is the service's stats_to_dict shape
        for section in ("last_query", "cumulative"):
            stats = document["stats"][section]
            assert set(stats) == {
                "counters", "agent_scans", "fallback_invalidations",
                "missing_shards", "timers",
            }

    def test_json_without_stats_is_lean(self):
        status, text = self._run("query", QUERY, "--demo", "genealogy", "--json")
        assert status == 0
        document = json.loads(text)
        assert "stats" not in document
        assert "runs" not in document

    def test_json_repeat_reports_cache_hits(self):
        status, text = self._run(
            "query", QUERY, "--demo", "genealogy", "--json", "--stats",
            "--repeat", "2",
        )
        assert status == 0
        document = json.loads(text)
        assert len(document["runs"]) == 2
        assert document["runs"][0]["agent_scans"] >= 1
        assert document["runs"][1]["agent_scans"] == 0  # warm second run

    def test_async_query_leaves_no_loop_thread(self):
        before = len(_loop_threads())
        status, text = self._run(
            "query", QUERY, "--demo", "genealogy", "--mode", "async", "--json"
        )
        assert status == 0
        assert json.loads(text)["count"] == 1
        assert len(_loop_threads()) == before  # close() ran on the way out

    def test_error_path_still_closes_the_runtime(self):
        before = len(_loop_threads())
        out = io.StringIO()
        status = main(
            ["query", "uncle(bad", "--demo", "genealogy", "--mode", "async"],
            out=out,
        )
        assert status == 1
        assert len(_loop_threads()) == before


class TestTenantSpec:
    def test_full_spec(self):
        config = _parse_tenant_spec(
            "name=t1,demo=cluster,mode=threaded,shards=4,"
            "latency=2.5,max-inflight=3,workers=2"
        )
        assert config.name == "t1"
        assert config.demo == "cluster"
        assert config.mode == "threaded"
        assert config.shards == 4
        assert config.latency_ms == 2.5
        assert config.max_inflight == 3
        assert config.max_workers == 2

    def test_defaults(self):
        config = _parse_tenant_spec("name=x")
        assert config.demo == "genealogy"
        assert config.mode == "async"
        assert config.shards == 0

    @pytest.mark.parametrize(
        "spec",
        ["demo=genealogy", "name=x,unknown=1", "name=x,mode"],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ServiceError):
            _parse_tenant_spec(spec)

    def test_shard_kind_is_refused(self):
        """Hash is the only shard plan: neither front door takes a kind."""
        with pytest.raises(ServiceError, match="unknown tenant spec keys: shard_kind"):
            _parse_tenant_spec("name=t,demo=cluster,shards=4,shard-kind=hash")
        with pytest.raises(SystemExit) as refused:
            main(
                ["query", QUERY, "--demo", "genealogy", "--shards", "2",
                 "--shard-kind", "range"],
                out=io.StringIO(),
            )
        assert refused.value.code == 2

    def test_multiprocess_mode_is_refused(self):
        """Threaded and async are the only engines: both front doors
        refuse the removed mode before any source loads."""
        with pytest.raises(ServiceError, match="needs mode in"):
            _parse_tenant_spec("name=t,demo=cluster,mode=multiprocess")
        with pytest.raises(SystemExit) as refused:
            main(
                ["query", QUERY, "--demo", "genealogy", "--mode", "multiprocess"],
                out=io.StringIO(),
            )
        assert refused.value.code == 2


class TestServeSubcommand:
    def test_serve_boots_answers_and_shuts_down(self):
        """End-to-end: subprocess serve, query over HTTP, clean exit."""
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--allow-remote-shutdown",
                "--tenant", "name=gen,demo=genealogy,mode=async",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                # make `repro` importable however the suite was invoked
                "PYTHONPATH": os.pathsep.join(
                    filter(
                        None,
                        (
                            str(Path(__file__).resolve().parents[2] / "src"),
                            os.environ.get("PYTHONPATH"),
                        ),
                    )
                ),
            },
        )
        try:
            port = None
            assert process.stdout is not None
            for line in process.stdout:
                match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
                if match:
                    port = int(match.group(1))
                    break
            assert port, "serve never announced its address"
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/healthz")
            health = conn.getresponse()
            assert health.status == 200
            assert json.loads(health.read())["status"] == "ok"
            conn.request(
                "POST",
                "/tenants/gen/query",
                body=json.dumps({"query": QUERY}),
            )
            answer = conn.getresponse()
            assert answer.status == 200
            assert json.loads(answer.read())["count"] == 1
            conn.request("POST", "/admin/shutdown")
            assert conn.getresponse().status == 202
            conn.close()
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup
                process.kill()
                process.wait(timeout=10)
