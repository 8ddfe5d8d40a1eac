"""Minimal asyncio HTTP/1.1 layer (stdlib only).

Implements exactly what the campaign service needs and nothing more:
request-line + header parsing with ``Content-Length`` bodies in;
fixed-length JSON/text responses and **chunked transfer encoding**
(for JSONL event streams) out; a path-template router.

Connections are **keep-alive** by HTTP/1.1 default: a client may pipe
many requests through one connection (``ServiceClient`` polling a job
reuses its socket instead of reconnecting per poll), bounded by
``MAX_REQUESTS_PER_CONNECTION``, and the server advertises
``Connection: close`` on the last response — when the cap is reached,
when the client asked to close (or spoke HTTP/1.0 without
``keep-alive``), after a parse error (framing is no longer trustworthy)
and during shutdown.

An optional observer (see
:class:`~repro.service.observability.ServiceObserver`) sees every
request: a request id is minted (or taken from an inbound
``X-Request-Id``), echoed on the response, and stamped into the access
log with the matched route template, the status and the latency.
Unhandled handler exceptions are journalled with their traceback and
answered with a **generic** 500 carrying only the request id — internal
details never leak to the client.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024
MAX_REQUESTS_PER_CONNECTION = 100

REASONS = {
    200: "OK", 201: "Created", 204: "No Content",
    400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    429: "Too Many Requests", 500: "Internal Server Error",
}


class HTTPError(Exception):
    """Raise inside a handler to produce a JSON error response.

    *headers* ride along onto the response — a 405 carries the
    mandatory ``Allow`` header this way."""

    def __init__(self, status: int, message: str,
                 headers: dict[str, str] | None = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}


@dataclass
class Request:
    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    params: dict[str, str] = field(default_factory=dict)
    version: str = "HTTP/1.1"
    #: the request id (inbound X-Request-Id or freshly minted);
    #: assigned by the connection handler before routing.
    id: str = ""

    def wants_keep_alive(self) -> bool:
        """HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an
        explicit Connection header wins either way."""
        connection = self.headers.get("connection", "").lower()
        if "close" in connection:
            return False
        if self.version == "HTTP/1.0":
            return "keep-alive" in connection
        return True

    def json(self):
        if not self.body:
            raise HTTPError(400, "request body must be JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise HTTPError(400, "request body is not valid JSON") \
                from None


@dataclass
class Response:
    status: int = 200
    body: bytes = b""
    content_type: str = "application/json; charset=utf-8"
    headers: dict[str, str] = field(default_factory=dict)
    #: async iterator of bytes chunks; set => chunked transfer.
    stream = None

    @classmethod
    def json(cls, obj, status: int = 200) -> "Response":
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        return cls(status=status, body=text.encode("utf-8"))

    @classmethod
    def text(cls, text: str, status: int = 200,
             content_type: str = "text/plain; charset=utf-8"
             ) -> "Response":
        return cls(status=status, body=text.encode("utf-8"),
                   content_type=content_type)

    @classmethod
    def binary(cls, data: bytes, status: int = 200,
               content_type: str = "application/octet-stream"
               ) -> "Response":
        return cls(status=status, body=data,
                   content_type=content_type)

    @classmethod
    def streaming(cls, aiter, status: int = 200,
                  content_type: str = "application/jsonl; charset=utf-8"
                  ) -> "Response":
        response = cls(status=status, content_type=content_type)
        response.stream = aiter
        return response

    @classmethod
    def html(cls, text: str, status: int = 200) -> "Response":
        return cls.text(text, status=status,
                        content_type="text/html; charset=utf-8")

    @classmethod
    def error(cls, status: int, message: str,
              headers: dict[str, str] | None = None) -> "Response":
        response = cls.json({"error": message}, status=status)
        if headers:
            response.headers.update(headers)
        return response


class Router:
    """Path-template routing: ``/v1/jobs/{id}/status`` binds ``{id}``
    into ``request.params``."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, re.Pattern, object, str]] = []

    def add(self, method: str, template: str, handler) -> None:
        pattern = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", template)
            + "$")
        self._routes.append((method.upper(), pattern, handler,
                             template))

    def match(self, method: str, path: str):
        """(handler, params) — raises HTTPError 404/405."""
        handler, params, _template = self.resolve(method, path)
        return handler, params

    def resolve(self, method: str, path: str):
        """(handler, params, template) — the template is the route's
        original path pattern (``/v1/jobs/{id}``), which metric labels
        and access logs use instead of the raw path so cardinality
        stays bounded.  Raises HTTPError 404/405."""
        allowed = set()
        for route_method, pattern, handler, template in self._routes:
            found = pattern.match(path)
            if found is None:
                continue
            if route_method != method.upper():
                allowed.add(route_method)
                continue
            return handler, {name: unquote(value) for name, value
                             in found.groupdict().items()}, template
        if allowed:
            permitted = ", ".join(sorted(allowed))
            raise HTTPError(405, f"{method} not allowed here "
                                 f"(try: {permitted})",
                            headers={"Allow": permitted})
        raise HTTPError(404, f"no such resource: {path}")


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one request; None on a cleanly closed connection.  A
    shutdown cancels keep-alive connections parked here waiting for
    their next request, which closes them just as cleanly."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError,
            asyncio.CancelledError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HTTPError(400, "malformed request line")
    method, target = parts[0], parts[1]
    headers: dict[str, str] = {}
    total = len(line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HTTPError(400, "headers too large")
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            raise HTTPError(400, "bad Content-Length") from None
        if size > MAX_BODY_BYTES:
            raise HTTPError(400, "request body too large")
        body = await reader.readexactly(size)
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(method=method, path=unquote(split.path),
                   query=query, headers=headers, body=body,
                   version=parts[2])


def _head(response: Response, chunked: bool,
          keep_alive: bool = False) -> bytes:
    reason = REASONS.get(response.status, "Unknown")
    lines = [f"HTTP/1.1 {response.status} {reason}",
             f"Content-Type: {response.content_type}",
             "Connection: keep-alive" if keep_alive
             else "Connection: close"]
    if chunked:
        lines.append("Transfer-Encoding: chunked")
    else:
        lines.append(f"Content-Length: {len(response.body)}")
    # Everything this API serves is live state (job listings, metric
    # scrapes, event streams): caching any of it would show operators
    # stale campaigns.  A handler that knows better may override.
    if not any(name.lower() == "cache-control"
               for name in response.headers):
        lines.append("Cache-Control: no-store")
    for name, value in response.headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(writer: asyncio.StreamWriter,
                         response: Response,
                         keep_alive: bool = False) -> None:
    if response.stream is None:
        writer.write(_head(response, chunked=False,
                           keep_alive=keep_alive) + response.body)
        await writer.drain()
        return
    # Chunked framing is self-terminating (the 0-length chunk), so a
    # stream response keeps the connection reusable too.
    writer.write(_head(response, chunked=True, keep_alive=keep_alive))
    await writer.drain()
    stream = response.stream
    try:
        async for chunk in stream:
            if not chunk:
                continue
            if writer.is_closing():
                # The client went away between chunks; surface it as
                # the connection error it is so the handler loop stops
                # polling for a reader that no longer exists.
                raise ConnectionResetError(
                    "client disconnected mid-stream")
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1")
                         + chunk + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
    finally:
        # Throw GeneratorExit into the producer *now* (not at GC), so
        # its finally blocks run — poll loops stop, file handles and
        # leases the generator scoped are released deterministically.
        aclose = getattr(stream, "aclose", None)
        if aclose is not None:
            try:
                await aclose()
            except Exception:
                pass


def _mint_request_id(request: Request | None) -> str:
    if request is not None:
        inbound = request.headers.get("x-request-id", "").strip()
        if inbound and len(inbound) <= 128 \
                and inbound.isprintable():
            return inbound
    from .observability import new_request_id
    return new_request_id()


async def handle_connection(reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            router: Router, observer=None,
                            closing=None,
                            max_requests: int =
                            MAX_REQUESTS_PER_CONNECTION) -> None:
    """Serve requests off one connection until it closes.

    *observer* (optional) is notified of every request and error;
    *closing* (an object with ``is_set()``, e.g. a threading.Event)
    forces ``Connection: close`` on in-flight responses during
    shutdown."""
    if observer is not None:
        observer.connection_opened()
    handled = 0
    try:
        while True:
            keep_alive = False
            request = None
            route = None
            in_flight = False
            started = time.monotonic()
            try:
                try:
                    request = await read_request(reader)
                    if request is None:
                        return
                    handled += 1
                    keep_alive = (request.wants_keep_alive()
                                  and handled < max_requests
                                  and not (closing is not None
                                           and closing.is_set()))
                    request.id = _mint_request_id(request)
                    if observer is not None:
                        # In-flight covers the whole exchange — a
                        # streaming response is "in flight" until its
                        # last chunk (or the disconnect) — so the
                        # finally below, not the handler return,
                        # decrements it.
                        observer.request_started()
                        in_flight = True
                    handler, params, route = router.resolve(
                        request.method, request.path)
                    request.params = params
                    response = await handler(request)
                except HTTPError as exc:
                    if request is None:
                        # The request line / headers did not parse;
                        # the stream position is unknown, so the
                        # connection cannot be reused.
                        request = Request(method="?", path="?")
                        request.id = _mint_request_id(None)
                        keep_alive = False
                    response = Response.error(exc.status, exc.message,
                                              headers=exc.headers)
                except (ConnectionError,
                        asyncio.IncompleteReadError):
                    return
                except Exception as exc:  # handler bug: report only
                    # Log the full traceback server-side; the client
                    # gets a generic body carrying the request id.
                    if observer is not None:
                        observer.observe_error(
                            request.id, exc, method=request.method,
                            path=request.path)
                    response = Response.json(
                        {"error": "internal server error",
                         "request_id": request.id}, status=500)
                response.headers.setdefault("X-Request-Id", request.id)
                try:
                    await write_response(writer, response,
                                         keep_alive=keep_alive)
                except (ConnectionError, asyncio.CancelledError):
                    return  # client went away mid-stream
            finally:
                if in_flight:
                    observer.request_finished()
            if observer is not None:
                # Unrouted requests (404/405/parse errors) share one
                # label so scanners cannot inflate the route set.
                observer.observe_request(
                    request.id, request.method,
                    route if route is not None else "unrouted",
                    response.status, time.monotonic() - started,
                    path=request.path,
                    tenant=request.headers.get("x-tenant"))
            if not keep_alive:
                return
    finally:
        if observer is not None:
            observer.connection_closed()
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def start_http_server(router: Router, host: str, port: int,
                            observer=None,
                            closing=None) -> asyncio.Server:
    """Bind and return the asyncio server (``server.sockets`` exposes
    the actual port when *port* is 0)."""
    return await asyncio.start_server(
        lambda reader, writer: handle_connection(
            reader, writer, router, observer=observer,
            closing=closing),
        host=host, port=port)


def bound_port(server: asyncio.Server) -> int:
    return server.sockets[0].getsockname()[1]
