"""Stopping the server while a keep-alive client idles is quiet.

The connection handler is parked in ``_read_head`` when shutdown comes.
The server must let it notice the stop event and return instead of
leaving it for ``asyncio.run`` to cancel: a cancelled stream handler
makes the event loop log a ``CancelledError`` traceback.
"""

import http.client
import json

from repro.service import (
    FederationRepository,
    ServerThread,
    TenantConfig,
    create_app,
)


def test_stop_with_an_idle_keep_alive_connection_logs_nothing(capfd):
    repository = FederationRepository(drain_timeout=5.0)
    repository.add_tenant(TenantConfig(name="clu", demo="cluster", mode="threaded"))
    app = create_app(repository, allow_shutdown=False)
    server = ServerThread(app, port=0).start()
    loop_errors = []
    server.server._loop.set_exception_handler(
        lambda loop, context: loop_errors.append(context)
    )
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
        server.stop()  # the connection is still open and idle
    finally:
        conn.close()
        repository.close()
    assert loop_errors == []
    assert capfd.readouterr().err == ""
