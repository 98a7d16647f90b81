"""A stdlib asyncio HTTP/1.1 server speaking ASGI to the service app.

The repo must serve without installing an ASGI server, so this module
implements just enough HTTP/1.1 — request head parsing,
``Content-Length`` bodies, keep-alive, buffered responses — to host
:class:`~repro.service.app.FederationService` from ``asyncio`` alone.
The app stays a standard ASGI callable: point ``uvicorn`` at it when
one is installed; run :class:`ServiceServer` when not.

Shutdown is cooperative: :meth:`ServiceServer.request_shutdown` (thread
safe) or the app's ``/admin/shutdown`` endpoint sets a stop event; the
accept loop closes, idle keep-alive connections notice within one poll
interval and the server awaits their handlers (a handler still stuck
after a grace period has its connection aborted, which ends its read),
the ASGI ``lifespan.shutdown`` handshake drains the repository, and
:meth:`run` returns.  No handler is left for ``asyncio.run`` to cancel:
a cancelled stream handler makes the event loop log a ``CancelledError``
traceback.

:class:`ServerThread` hosts the whole thing on a background thread —
the shape the test-suite and the E-R5 load benchmark drive.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from .asgi import MAX_BODY_BYTES, Message, Response
from .app import FederationService

#: how often an idle keep-alive connection re-checks the stop event
_POLL = 0.25
#: how long shutdown waits for connection handlers before aborting them
_DRAIN_GRACE = 8 * _POLL
#: idle keep-alive connections are dropped after this many seconds
IDLE_TIMEOUT = 30.0
#: largest request head (request line + headers) accepted
MAX_HEAD_BYTES = 64 * 1024


class _BadRequest(Exception):
    """The peer sent something that is not parseable HTTP/1.1."""


async def _read_head(
    reader: asyncio.StreamReader, stopping: asyncio.Event
) -> Optional[bytes]:
    """Read one request head, polling so shutdown interrupts idle waits.

    Returns ``None`` when the connection closed cleanly, shutdown was
    requested before a request arrived, or the peer idled out.
    """
    task = asyncio.ensure_future(reader.readuntil(b"\r\n\r\n"))
    waited = 0.0
    try:
        while True:
            try:
                return await asyncio.wait_for(asyncio.shield(task), timeout=_POLL)
            except asyncio.TimeoutError:
                waited += _POLL
                if stopping.is_set() or waited >= IDLE_TIMEOUT:
                    return None
            except asyncio.IncompleteReadError:
                return None
            except asyncio.LimitOverrunError as error:
                raise _BadRequest(f"request head too large: {error}") from None
    finally:
        if not task.done():
            task.cancel()
        try:
            await task
        except (
            asyncio.CancelledError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass


def _parse_head(head: bytes) -> Tuple[str, str, bytes, List[Tuple[bytes, bytes]]]:
    """``(method, target, http_version, headers)`` from one request head."""
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError, IndexError):
        raise _BadRequest("malformed request line") from None
    headers: List[Tuple[bytes, bytes]] = []
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        if not _:
            raise _BadRequest(f"malformed header line {line!r}")
        headers.append(
            (name.strip().lower().encode("latin-1"), value.strip().encode("latin-1"))
        )
    return method, target, version.strip().encode("latin-1"), headers


class ServiceServer:
    """Host one ASGI app over stdlib asyncio HTTP/1.1."""

    def __init__(
        self,
        app: FederationService,
        host: str = "127.0.0.1",
        port: int = 8722,
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        #: the port actually bound (differs from *port* when it was 0)
        self.bound_port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping: Optional[asyncio.Event] = None
        #: live connection handlers, with the writer that can abort each
        self._connections: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}
        self.ready = threading.Event()
        if app.shutdown_callback is None:
            app.shutdown_callback = self.request_shutdown

    # ------------------------------------------------------------------
    def request_shutdown(self) -> None:
        """Ask the server to stop; safe from any thread."""
        loop, stopping = self._loop, self._stopping
        if loop is not None and stopping is not None and loop.is_running():
            loop.call_soon_threadsafe(stopping.set)

    def run(self) -> None:
        """Serve until shutdown is requested (blocks this thread)."""
        asyncio.run(self.serve())

    # ------------------------------------------------------------------
    async def serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        await self._lifespan_message({"type": "lifespan.startup"})
        server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=MAX_HEAD_BYTES,
        )
        sockets = server.sockets or []
        for sock in sockets:
            if sock.family in (socket.AF_INET, socket.AF_INET6):
                self.bound_port = sock.getsockname()[1]
                break
        self.ready.set()
        try:
            await self._stopping.wait()
        finally:
            server.close()
            await self._drain_connections()
            await server.wait_closed()
            await self._lifespan_message({"type": "lifespan.shutdown"})
            self.ready.clear()

    async def _drain_connections(self) -> None:
        """Await every connection handler; they see the stop event within
        one poll.  Handlers still running after the grace period (a peer
        that never finishes its request body) get their connection
        aborted, which ends any pending read."""
        while self._connections:
            _, stuck = await asyncio.wait(
                list(self._connections), timeout=_DRAIN_GRACE
            )
            for task in stuck:
                self._connections[task].transport.abort()

    async def _lifespan_message(self, message: Message) -> None:
        """Run one side of the ASGI lifespan handshake.

        Startup spawns the app's long-lived lifespan coroutine and waits
        for ``startup.complete``; shutdown feeds it the shutdown message
        and waits for the coroutine to finish (which drains and closes
        the repository).
        """
        if message["type"] == "lifespan.startup":
            inbox: "asyncio.Queue[Message]" = asyncio.Queue()
            await inbox.put(message)
            started = asyncio.Event()

            async def receive() -> Message:
                return await inbox.get()

            async def send(reply: Message) -> None:
                started.set()

            self._lifespan_inbox = inbox
            self._lifespan_task = asyncio.ensure_future(
                self.app(
                    {"type": "lifespan", "asgi": {"version": "3.0"}}, receive, send
                )
            )
            await started.wait()
        else:
            await self._lifespan_inbox.put(message)
            await self._lifespan_task

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        assert self._stopping is not None
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        try:
            while True:
                try:
                    head = await _read_head(reader, self._stopping)
                except _BadRequest:
                    await self._write_response(
                        writer, Response.error(400, "malformed request"), close=True
                    )
                    return
                if head is None:
                    return
                keep_alive = await self._handle_request(head, reader, writer)
                if not keep_alive or self._stopping.is_set():
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass
            del self._connections[task]

    async def _handle_request(
        self,
        head: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        """Serve one request; returns whether to keep the connection."""
        try:
            method, target, version, headers = _parse_head(head)
        except _BadRequest:
            await self._write_response(
                writer, Response.error(400, "malformed request"), close=True
            )
            return False
        header_map = {name: value for name, value in headers}
        length_raw = header_map.get(b"content-length", b"0") or b"0"
        try:
            content_length = int(length_raw)
        except ValueError:
            await self._write_response(
                writer, Response.error(400, "bad content-length"), close=True
            )
            return False
        if content_length > MAX_BODY_BYTES:
            await self._write_response(
                writer, Response.error(413, "request body too large"), close=True
            )
            return False
        try:
            body = (
                await reader.readexactly(content_length) if content_length else b""
            )
        except asyncio.IncompleteReadError:
            return False
        path, _, query_string = target.partition("?")
        connection = header_map.get(b"connection", b"").lower()
        keep_alive = (
            connection != b"close"
            if version == b"HTTP/1.1"
            else connection == b"keep-alive"
        )
        scope: Dict[str, Any] = {
            "type": "http",
            "asgi": {"version": "3.0", "spec_version": "2.3"},
            "http_version": version.decode("latin-1").removeprefix("HTTP/"),
            "method": method.upper(),
            "path": path,
            "raw_path": target.encode("latin-1"),
            "query_string": query_string.encode("latin-1"),
            "headers": headers,
            "server": (self.host, self.bound_port or self.port),
            "client": writer.get_extra_info("peername"),
        }
        response = await self._call_app(scope, body)
        await self._write_response(writer, response, close=not keep_alive)
        return keep_alive

    async def _call_app(self, scope: Dict[str, Any], body: bytes) -> Response:
        """Drive the ASGI app for one request, buffering its response."""
        messages: List[Message] = [
            {"type": "http.request", "body": body, "more_body": False}
        ]

        async def receive() -> Message:
            if messages:
                return messages.pop(0)
            return {"type": "http.disconnect"}

        status = 500
        headers: List[Tuple[bytes, bytes]] = []
        chunks: List[bytes] = []

        async def send(message: Message) -> None:
            nonlocal status, headers
            if message["type"] == "http.response.start":
                status = message["status"]
                headers = list(message.get("headers", []))
            elif message["type"] == "http.response.body":
                chunks.append(message.get("body", b"") or b"")

        try:
            await self.app(scope, receive, send)
        except Exception:  # app-level bug: keep the connection protocol-clean
            return Response.error(500, "internal server error")
        body_out = b"".join(chunks)
        content_type = "application/json"
        extra: List[Tuple[str, str]] = []
        for name, value in headers:
            if name.lower() == b"content-type":
                content_type = value.decode("latin-1")
            elif name.lower() != b"content-length":
                extra.append((name.decode("latin-1"), value.decode("latin-1")))
        return Response(
            status=status,
            body=body_out,
            content_type=content_type,
            headers=tuple(extra),
        )

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response, close: bool
    ) -> None:
        head_lines = [f"HTTP/1.1 {response.status} {_reason(response.status)}"]
        for name, value in response.asgi_headers():
            head_lines.append(
                f"{name.decode('latin-1')}: {value.decode('latin-1')}"
            )
        head_lines.append(f"connection: {'close' if close else 'keep-alive'}")
        head = ("\r\n".join(head_lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + response.body)
        await writer.drain()


_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


def _reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")


class ServerThread:
    """Run a :class:`ServiceServer` on a daemon thread (tests, benchmarks).

    ::

        with ServerThread(app, port=0) as server:
            ...  # http requests against 127.0.0.1:server.port
    """

    def __init__(
        self, app: FederationService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.server = ServiceServer(app, host=host, port=port)
        self.thread = threading.Thread(
            target=self.server.run, name="service-server", daemon=True
        )

    @property
    def port(self) -> int:
        assert self.server.bound_port is not None
        return self.server.bound_port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self.thread.start()
        if not self.server.ready.wait(timeout=timeout):
            raise RuntimeError("service server did not become ready")
        return self

    def stop(self, timeout: float = 15.0) -> None:
        self.server.request_shutdown()
        self.thread.join(timeout=timeout)
        if self.thread.is_alive():  # pragma: no cover - diagnostics only
            raise RuntimeError("service server did not stop in time")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
