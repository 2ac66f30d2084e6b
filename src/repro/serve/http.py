"""The service's one HTTP/1.1 front, shared by the simulation server
(:class:`~repro.serve.app.ServeApp`) and the shard gateway
(:class:`~repro.serve.shard.GatewayApp`).

A deliberately small HTTP/1.1 subset — request line, headers,
``Content-Length`` body, ``Connection: close`` — so the whole service
stays standard-library only.  :class:`HTTPFront` parses each
connection and sends it through the one route table below to a fixed
set of async handlers; each app subclasses it and implements them::

    POST   /v2/jobs              submit
    POST   /v2/jobs:batch        submit_batch
    GET    /v2/jobs              list_jobs
    GET    /v2/jobs/<id>         get_job
    GET    /v2/jobs/<id>/events  stream (NDJSON, written by the handler)
    DELETE /v2/jobs/<id>         cancel
    GET    /healthz              healthz
    GET    /metrics              get_metrics

Every non-2xx response body is the uniform error envelope
``{"error": {"code", "message", "retryable"}}``.  Unknown paths get
404 ``not_found`` and unsupported methods 405 ``method_not_allowed``.
The gateway's calls to its backends use :func:`open_request` from the
same module.
"""

from __future__ import annotations

import asyncio
import json
import math
from typing import Any, Dict, Optional, Tuple

#: Seconds to wait for each request line / header line from a client.
REQUEST_TIMEOUT = 30.0

#: What every JSON handler returns: (HTTP status, body, extra headers).
Reply = Tuple[int, Dict[str, Any], Dict[str, str]]

REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
           404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
           429: "Too Many Requests", 500: "Internal Server Error",
           502: "Bad Gateway", 503: "Service Unavailable"}

#: (method, path pattern, handler); ``<id>`` matches one path segment,
#: which is passed to the handler.
ROUTES = (
    ("POST", "/v2/jobs", "submit"),
    ("POST", "/v2/jobs:batch", "submit_batch"),
    ("GET", "/v2/jobs", "list_jobs"),
    ("GET", "/v2/jobs/<id>", "get_job"),
    ("GET", "/v2/jobs/<id>/events", "stream"),
    ("DELETE", "/v2/jobs/<id>", "cancel"),
    ("GET", "/healthz", "healthz"),
    ("GET", "/metrics", "get_metrics"),
)
_ROUTE_PARTS = [(method, pattern.split("/"), handler)
                for method, pattern, handler in ROUTES]


def error_body(code: str, message: str,
               retryable: bool = False) -> Dict[str, Any]:
    """The uniform error envelope every non-2xx response carries."""
    return {"error": {"code": code, "message": message,
                      "retryable": retryable}}


def _finite(value: Optional[float]) -> Optional[float]:
    """Non-finite floats become ``None`` so responses stay strict JSON."""
    if value is None or not isinstance(value, float):
        return value
    return value if math.isfinite(value) else None


def _json_safe(obj):
    """Recursively replace NaN/inf so ``json.dumps`` emits strict JSON
    (curl/jq choke on bare ``NaN`` tokens)."""
    if isinstance(obj, float):
        return _finite(obj)
    if isinstance(obj, dict):
        return {key: _json_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(value) for value in obj]
    return obj


def _head(status_line: str, headers: Dict[str, str]) -> bytes:
    lines = [status_line] + [f"{name}: {value}"
                             for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode()


async def send_json(writer: asyncio.StreamWriter, status: int,
                    body: Dict[str, Any],
                    headers: Optional[Dict[str, str]] = None) -> None:
    """Write one complete JSON response."""
    payload = json.dumps(_json_safe(body), sort_keys=True).encode()
    writer.write(_head(f"HTTP/1.1 {status} {REASONS.get(status, 'Error')}",
                       {"Content-Type": "application/json",
                        "Content-Length": str(len(payload)),
                        "Connection": "close", **(headers or {})})
                 + payload)
    await writer.drain()


def send_ndjson_head(writer: asyncio.StreamWriter,
                     headers: Optional[Dict[str, str]] = None) -> None:
    """Start a 200 NDJSON event stream; the caller writes the lines."""
    writer.write(_head("HTTP/1.1 200 OK",
                       {"Content-Type": "application/x-ndjson",
                        "Cache-Control": "no-store",
                        "Connection": "close", **(headers or {})}))


async def _read_headers(reader: asyncio.StreamReader,
                        timeout: float) -> Dict[str, str]:
    """Header lines up to the blank line, names lower-cased."""
    headers: Dict[str, str] = {}
    while True:
        line = await asyncio.wait_for(reader.readline(), timeout)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


async def _read_head(reader: asyncio.StreamReader,
                    timeout: float) -> Tuple[int, Dict[str, str]]:
    """Status code + lower-cased headers of one backend response."""
    line = await asyncio.wait_for(reader.readline(), timeout)
    try:
        status = int(line.split()[1])
    except (IndexError, ValueError):
        raise ConnectionError(f"bad status line {line!r}") from None
    return status, await _read_headers(reader, timeout)


async def close_writer(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, RuntimeError):
        pass


async def open_request(backend: str, method: str, path: str,
                       payload: Optional[Any], timeout: float
                       ) -> Tuple[asyncio.StreamReader,
                                  asyncio.StreamWriter, int,
                                  Dict[str, str]]:
    """Send one request to ``host:port`` and read the response head;
    returns (reader, writer, status, headers) with the body unread.
    The caller closes the writer (it is closed here on failure)."""
    host, _, port = backend.rpartition(":")
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, int(port)), timeout)
    try:
        body = b"" if payload is None else json.dumps(payload).encode()
        headers = {"Host": backend, "Connection": "close"}
        if body:
            headers.update({"Content-Type": "application/json",
                            "Content-Length": str(len(body))})
        writer.write(_head(f"{method} {path} HTTP/1.1", headers) + body)
        await writer.drain()
        status, head = await _read_head(reader, timeout)
    except BaseException:
        await close_writer(writer)
        raise
    return reader, writer, status, head


def _match(method: str, path: str) -> Tuple[Optional[str], list]:
    parts = path.split("/")
    for route_method, pattern, handler in _ROUTE_PARTS:
        if route_method == method and len(pattern) == len(parts) and all(
                want in ("<id>", got) for want, got in zip(pattern, parts)):
            return handler, [got for want, got in zip(pattern, parts)
                             if want == "<id>"]
    return None, []


class HTTPFront:
    """Connection handling and routing for one app.

    Subclasses implement the handlers named in :data:`ROUTES`: each
    JSON handler returns a :data:`Reply`; ``stream(job_id, writer)``
    writes its own response.  ``note_invalid_json`` counts a submit
    whose body was not JSON (the front answers it with 400
    ``invalid_json``)."""

    async def handle_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Read one request, answer it, close the connection."""
        try:
            request = await asyncio.wait_for(reader.readline(),
                                             REQUEST_TIMEOUT)
            if not request:
                return
            try:
                method, target, _ = request.decode("latin-1").split(None, 2)
            except ValueError:
                await send_json(writer, 400, error_body(
                    "bad_request", "malformed request line"))
                return
            headers = await _read_headers(reader, REQUEST_TIMEOUT)
            length = int(headers.get("content-length", 0) or 0)
            body = await reader.readexactly(length) if length else b""
            await self._dispatch(method, target.split("?", 1)[0], body,
                                 writer)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ConnectionError):
            pass
        finally:
            await close_writer(writer)

    async def _dispatch(self, method: str, path: str, body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        handler, args = _match(method, path)
        if handler is None:
            # GET/DELETE name a resource that does not exist; any other
            # method is one the service does not take there.
            if method in ("GET", "DELETE"):
                reply = 404, error_body("not_found",
                                        f"no such endpoint {path!r}"), {}
            else:
                reply = 405, error_body("method_not_allowed",
                                        f"unsupported method {method}"), {}
        elif handler == "stream":
            await self.stream(args[0], writer)
            return
        elif method == "POST":
            try:
                payload = json.loads(body or b"null")
            except ValueError:
                self.note_invalid_json()
                reply = 400, error_body("invalid_json",
                                        "body is not valid JSON"), {}
            else:
                reply = await getattr(self, handler)(payload)
        else:
            reply = await getattr(self, handler)(*args)
        status, out, headers = reply
        await send_json(writer, status, out, headers)

    # --- the handler set -----------------------------------------------------

    def note_invalid_json(self) -> None:
        raise NotImplementedError

    async def submit(self, payload: Any) -> Reply:
        raise NotImplementedError

    async def submit_batch(self, payload: Any) -> Reply:
        raise NotImplementedError

    async def cancel(self, job_id: str) -> Reply:
        raise NotImplementedError

    async def get_job(self, job_id: str) -> Reply:
        raise NotImplementedError

    async def list_jobs(self) -> Reply:
        raise NotImplementedError

    async def stream(self, job_id: str,
                     writer: asyncio.StreamWriter) -> None:
        raise NotImplementedError

    async def healthz(self) -> Reply:
        raise NotImplementedError

    async def get_metrics(self) -> Reply:
        raise NotImplementedError
