"""Minimal ASGI 3 framing: request/response primitives, no dependencies.

The federation service is an ordinary ASGI application — runnable under
``uvicorn repro.service:create_default_app`` style factories or any
other ASGI server — but the repo must serve without installing one, so
this module keeps the framing tiny and the bundled
:mod:`~repro.service.server` speaks the same protocol from the stdlib.

Only what the service needs is implemented: buffered request bodies
(federated queries are small JSON documents), buffered responses, and
the ``lifespan`` handshake for startup/shutdown hooks.
"""

from __future__ import annotations

import json
from typing import Any, Awaitable, Callable, Dict, List, Tuple
from urllib.parse import parse_qs

from ..errors import PayloadError
from .serialization import json_safe

#: ASGI callable pieces, named for readability in signatures
Scope = Dict[str, Any]
Message = Dict[str, Any]
Receive = Callable[[], Awaitable[Message]]
Send = Callable[[Message], Awaitable[None]]

#: largest request body the service accepts (federated queries are small)
MAX_BODY_BYTES = 1 << 20


class Request:
    """One buffered HTTP request, decoded from an ASGI scope + body."""

    def __init__(self, scope: Scope, body: bytes) -> None:
        self.scope = scope
        self.method: str = scope.get("method", "GET").upper()
        self.path: str = scope.get("path", "/")
        self.body = body
        self.headers: Dict[str, str] = {}
        for name, value in scope.get("headers", ()):  # latest value wins
            self.headers[bytes(name).decode("latin-1").lower()] = bytes(
                value
            ).decode("latin-1")
        query_string = scope.get("query_string", b"") or b""
        self.query: Dict[str, List[str]] = parse_qs(
            query_string.decode("latin-1"), keep_blank_values=True
        )

    def json(self) -> Any:
        """The decoded JSON body; ``None`` for an empty body.

        Raises :class:`~repro.errors.PayloadError` on malformed JSON —
        the app maps it to a 400 response.
        """
        if not self.body:
            return None
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise PayloadError(f"request body is not valid JSON: {error}") from None


class Response:
    """One buffered HTTP response the app hands back to the protocol."""

    def __init__(
        self,
        status: int = 200,
        body: bytes = b"",
        content_type: str = "application/json",
        headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers

    @classmethod
    def json(cls, payload: Any, status: int = 200) -> "Response":
        """A JSON response; *payload* is coerced through :func:`json_safe`."""
        body = json.dumps(json_safe(payload), indent=2).encode("utf-8") + b"\n"
        return cls(status=status, body=body)

    @classmethod
    def error(cls, status: int, message: str, **extra: Any) -> "Response":
        """The service's uniform error document."""
        return cls.json({"error": message, "status": status, **extra}, status=status)

    def asgi_headers(self) -> List[Tuple[bytes, bytes]]:
        pairs = [
            (b"content-type", self.content_type.encode("latin-1")),
            (b"content-length", str(len(self.body)).encode("latin-1")),
        ]
        for name, value in self.headers:
            pairs.append((name.encode("latin-1"), value.encode("latin-1")))
        return pairs


async def read_body(receive: Receive, limit: int = MAX_BODY_BYTES) -> bytes:
    """Drain ``http.request`` messages into one buffered body."""
    chunks: List[bytes] = []
    total = 0
    while True:
        message = await receive()
        kind = message.get("type")
        if kind == "http.disconnect":
            break
        if kind != "http.request":
            continue
        chunk = message.get("body", b"") or b""
        total += len(chunk)
        if total > limit:
            raise PayloadError(f"request body exceeds {limit} bytes")
        chunks.append(chunk)
        if not message.get("more_body", False):
            break
    return b"".join(chunks)


async def send_response(send: Send, response: Response) -> None:
    """Emit one buffered :class:`Response` as ASGI messages."""
    await send(
        {
            "type": "http.response.start",
            "status": response.status,
            "headers": response.asgi_headers(),
        }
    )
    await send(
        {"type": "http.response.body", "body": response.body, "more_body": False}
    )
