"""A small HTTP/1.1 server core on asyncio streams, shared by ``phoenix
serve`` and ``phoenix cache serve``.

Stdlib-only by design (the repo ships no runtime dependencies beyond the
scientific stack): request parsing, a segment-pattern router, response
building, and :class:`HTTPApp`, the server both apps subclass.  It
deliberately implements only what their surfaces need —
``Content-Length`` bodies (no chunked uploads), keep-alive connection
reuse, and streamed response bodies.  A malformed request gets 400 and a
``Content-Length`` over the body limit 413 (:class:`PayloadTooLarge`),
on both servers alike.

Handlers are ``async (Request) -> Response``; :class:`Response` carries
status + body + headers, with :meth:`Response.json` as the JSON shortcut
every ops endpoint uses.  A response with a ``stream`` (an async
generator of byte chunks) goes out with ``Connection: close`` and no
``Content-Length``: the body is the chunks, and it ends when the stream
does, or when the client hangs up.  A stream whose source raises ends
there too; the failure is logged with its route and counted as a 500.

An app's long-lived tasks are plain ``asyncio`` tasks (:meth:`HTTPApp._spawn`)
that run until they return (:meth:`HTTPApp.drain` waits for them through
the app's drain hook) or :meth:`HTTPApp.stop` cancels them.  The core's
own, the signal watcher, drains the app once the drain token is set.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import threading
import time
from dataclasses import dataclass, field
from typing import (
    Any, AsyncGenerator, Awaitable, Callable, Coroutine, Dict, List, Optional, Set, Tuple,
)
from urllib.parse import parse_qsl, unquote, urlsplit

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..service.resilience import shutdown_guard

logger = logging.getLogger(__name__)

__all__ = [
    "HTTPApp",
    "MAX_BODY_BYTES",
    "PayloadTooLarge",
    "REASONS",
    "Request",
    "Response",
    "Router",
    "read_request",
]

#: Seconds a drain lets open streamed responses finish before cutting them.
STREAM_GRACE_SECONDS = 2.0

#: Largest request body accepted (a serialized batch of programs is a few
#: MB at most; anything bigger is a mistake, answered with 413).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Reason phrases for the statuses this server actually emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class PayloadTooLarge(ValueError):
    """A request whose ``Content-Length`` exceeds the body limit (413)."""


@dataclass
class Request:
    """One parsed HTTP request (headers lower-cased, body fully read)."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""
    #: Path-pattern captures, filled in by the router on match.
    params: Dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        """Decode the body as JSON; raises ``ValueError`` on bad input."""
        if not self.body:
            raise ValueError("request body is empty, expected JSON")
        return json.loads(self.body.decode("utf-8"))

    @property
    def keep_alive(self) -> bool:
        return "close" not in self.headers.get("connection", "").lower()


@dataclass
class Response:
    """Status + body + headers; rendered to wire bytes by :meth:`encode`.

    With a ``stream`` the body is its chunks instead of ``body``.
    """

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)
    stream: Optional[AsyncGenerator[bytes, None]] = None

    @classmethod
    def json(
        cls, payload: Any, status: int = 200, headers: Optional[Dict[str, str]] = None
    ) -> "Response":
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
        return cls(status=status, body=body, headers=dict(headers or {}))

    @classmethod
    def text(cls, text: str, status: int = 200) -> "Response":
        return cls(
            status=status,
            body=text.encode("utf-8"),
            content_type="text/plain; charset=utf-8",
        )

    @classmethod
    def error(
        cls, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> "Response":
        return cls.json({"error": message, "status": status}, status, headers)

    def encode(self, keep_alive: bool = True) -> bytes:
        """Head plus body; a streamed response's head only."""
        reason = REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        headers = dict(self.headers)
        headers.setdefault("Content-Type", self.content_type)
        if self.stream is None:
            headers.setdefault("Content-Length", str(len(self.body)))
        else:
            keep_alive = False  # the stream ends where the connection does
        headers.setdefault("Connection", "keep-alive" if keep_alive else "close")
        lines += [f"{name}: {value}" for name, value in headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + self.body


async def read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean EOF.

    Raises :class:`PayloadTooLarge` for a ``Content-Length`` over
    ``max_body`` (the connection handler answers 413 and closes),
    ``ValueError`` for malformed requests (400) and
    ``asyncio.LimitOverrunError`` / ``ValueError`` for oversized header
    blocks.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise ValueError("connection closed mid-request") from None
    request_line, _, header_block = head.decode("latin-1").partition("\r\n")
    parts = request_line.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ValueError(f"malformed request line {request_line!r}")
    method, target, _version = parts
    split = urlsplit(target)
    headers: Dict[str, str] = {}
    for line in header_block.split("\r\n"):
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ValueError("chunked request bodies are not supported")
    length = int(headers.get("content-length", "0") or "0")
    if length > max_body:
        raise PayloadTooLarge(f"request body of {length} bytes exceeds {max_body}")
    body = await reader.readexactly(length) if length else b""
    return Request(
        method=method.upper(),
        path=unquote(split.path) or "/",
        query=dict(parse_qsl(split.query)),
        headers=headers,
        body=body,
    )


Handler = Callable[[Request], Awaitable[Response]]


class Router:
    """Method + segment-pattern routing: ``/v1/jobs/{id}/events``.

    ``{name}`` segments capture into ``request.params``.  ``match``
    returns the handler and its route label (the pattern itself, used as
    the low-cardinality ``route`` metrics label instead of raw paths).
    """

    def __init__(self) -> None:
        self._routes: List[Tuple[str, Tuple[str, ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        self._routes.append((method.upper(), tuple(pattern.strip("/").split("/")), handler))

    def match(
        self, method: str, path: str
    ) -> Tuple[Optional[Handler], Optional[str], Dict[str, str], bool]:
        """``(handler, route_label, params, path_known)``.

        ``path_known`` distinguishes 405 (path exists, method does not)
        from 404.
        """
        segments = tuple(path.strip("/").split("/"))
        path_known = False
        for route_method, pattern, handler in self._routes:
            params = self._bind(pattern, segments)
            if params is None:
                continue
            path_known = True
            if route_method == method.upper():
                return handler, "/" + "/".join(pattern), params, True
        return None, None, {}, path_known

    @staticmethod
    def _bind(
        pattern: Tuple[str, ...], segments: Tuple[str, ...]
    ) -> Optional[Dict[str, str]]:
        if len(pattern) != len(segments):
            return None
        params: Dict[str, str] = {}
        for expected, actual in zip(pattern, segments):
            if expected.startswith("{") and expected.endswith("}"):
                if not actual:
                    return None
                params[expected[1:-1]] = actual
            elif expected != actual:
                return None
        return params


class HTTPApp:
    """The asyncio server core: lifecycle, drain, connection loop, dispatch.

    Subclasses add their routes (:meth:`_build_router` via ``super()``),
    their request-metric series (:meth:`_count_request`,
    :attr:`request_histogram`) and the hooks below.  The core reads only
    ``config.host`` and ``config.port``.

    :meth:`run` installs the batch CLI's two-signal contract
    (:class:`~repro.service.resilience.shutdown_guard`): the first
    SIGINT/SIGTERM sets :attr:`drain_token` and :meth:`drain` flips
    ``/healthz`` to 503, winds the app's work down, closes the listener and
    exits 0.  A second signal aborts (exit 130).
    """

    #: Startup-log name of the server.
    name: str
    #: Request-latency histogram, observed for every routed request.
    request_histogram: str
    #: Largest accepted request body; a larger ``Content-Length`` is a 413.
    max_body = MAX_BODY_BYTES

    def __init__(self, config: Any, drain_token: Optional[threading.Event] = None) -> None:
        self.config = config
        self.draining = False
        #: Set by the signal handler (or tests) and polled by the watcher
        #: task, which then drains; apps may hand it on as a cancel token.
        self.drain_token = drain_token if drain_token is not None else threading.Event()
        #: Cross-thread readiness: set once the listening socket is bound
        #: (``bound_port`` is valid after this), for in-thread test servers.
        self.ready = threading.Event()
        self.bound_port: Optional[int] = None
        #: The loop the server runs on — lets other threads hand work in
        #: via ``call_soon_threadsafe`` (tests, embedding).
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped: Optional[asyncio.Event] = None
        #: The app's long-lived tasks (:meth:`_spawn`), by name.
        self._tasks: Dict[str, "asyncio.Task[None]"] = {}
        #: Connection tasks writing a streamed response right now.
        self._streams: Set["asyncio.Task[Any]"] = set()
        self._started_at = time.monotonic()
        self._router = self._build_router()

    # -- hooks ---------------------------------------------------------

    def _on_start(self) -> None:
        """Open resources and :meth:`_spawn` app tasks (in the loop, pre-bind)."""

    async def _on_drain(self) -> None:
        """Wind the app's work down before the listener closes."""
        logger.info("draining: closing the listener")

    def _close(self) -> None:
        """Release the app's resources (runs on a worker thread)."""

    def _count_request(self, method: str, route: str, status: int) -> None:
        raise NotImplementedError

    def _listening_detail(self) -> str:
        return ""

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Run :meth:`_on_start`, bind the socket, watch the drain token."""
        self._stopped = asyncio.Event()
        self.loop = asyncio.get_running_loop()
        self._on_start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        self._spawn("signal-watcher", self._watch_drain_token())
        logger.info(
            "%s listening on %s:%d (%s)",
            self.name,
            self.config.host,
            self.bound_port,
            self._listening_detail(),
        )
        self.ready.set()

    async def main(self) -> None:
        """Run until drained (signal) or :meth:`stop`."""
        await self.start()
        assert self._stopped is not None
        await self._stopped.wait()

    def run(self) -> int:
        """Blocking CLI entry: serve until drained (0) or aborted (130)."""
        with shutdown_guard(self.drain_token):
            try:
                asyncio.run(self.main())
            except KeyboardInterrupt:
                logger.warning("aborted before drain completed")
                return 130
        return 0

    def _spawn(self, name: str, coro: Coroutine[Any, Any, None]) -> None:
        """Run ``coro`` as the long-lived task ``name`` until it returns or
        :meth:`stop` cancels it (a task that must outlive a crash catches it)."""
        self._tasks[name] = asyncio.get_running_loop().create_task(coro, name=name)

    async def stop(self) -> None:
        """Immediate teardown (tests); :meth:`drain` is the graceful path."""
        for task in self._tasks.values():
            task.cancel()
        await asyncio.gather(*self._tasks.values(), return_exceptions=True)
        await self._close_resources(stream_grace=0.0)

    async def drain(self) -> None:
        """Graceful shutdown: 503 on ``/healthz``, :meth:`_on_drain`, close."""
        if self.draining:
            return
        self.draining = True
        self.drain_token.set()  # idempotent; also reaches any cancel-token user
        await self._on_drain()
        await self._close_resources(stream_grace=STREAM_GRACE_SECONDS)
        logger.info("drain complete")

    async def _close_resources(self, stream_grace: float) -> None:
        if self._server is not None:
            self._server.close()
            await self._end_streams(stream_grace)
            await self._server.wait_closed()
            self._server = None
        await asyncio.to_thread(self._close)
        if self._stopped is not None:
            self._stopped.set()

    async def _end_streams(self, grace: float) -> None:
        """Give open streams ``grace`` seconds to finish, then cut them.

        A drained app's streams have their last chunks queued already; a
        stream whose source never ends would otherwise hold shutdown
        open (from Python 3.12, ``Server.wait_closed`` waits for every
        connection).
        """
        if not self._streams:
            return
        if grace > 0:
            await asyncio.wait(set(self._streams), timeout=grace)
        pending = set(self._streams)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)

    async def _watch_drain_token(self) -> None:
        """Poll the cross-thread drain event from inside the loop, then drain."""
        while not self.drain_token.is_set():
            await asyncio.sleep(0.05)
        await self.drain()

    # -- HTTP surface --------------------------------------------------

    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/healthz", self._route_healthz)
        router.add("GET", "/metrics", self._route_metrics)
        return router

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader, max_body=self.max_body)
                except (ValueError, asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
                    status = 413 if isinstance(exc, PayloadTooLarge) else 400
                    writer.write(Response.error(status, str(exc)).encode(keep_alive=False))
                    await writer.drain()
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                if response.stream is not None:
                    await self._write_stream(response, reader, writer)
                    return
                writer.write(response.encode(keep_alive=request.keep_alive))
                await writer.drain()
                if not request.keep_alive:
                    return
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # A forked pool worker holds a copy of every socket open at the
            # fork, so only a shutdown (not a close) tells the client that
            # a Connection: close response, a stream's above all, has ended.
            with contextlib.suppress(Exception):
                writer.write_eof()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _write_stream(
        self, response: Response, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Write the head, then each chunk, until the stream ends.

        A read of the client side races every chunk: the client sends
        nothing after its request, so a completed read means it hung up.
        """
        assert response.stream is not None
        stream = response.stream
        task = asyncio.current_task()
        assert task is not None
        self._streams.add(task)
        hangup = asyncio.ensure_future(reader.read(1))
        chunk = asyncio.ensure_future(anext(stream, None))
        try:
            writer.write(response.encode(keep_alive=False))
            await writer.drain()
            while True:
                await asyncio.wait({hangup, chunk}, return_when=asyncio.FIRST_COMPLETED)
                data = chunk.result() if chunk.done() else None
                if data is None:  # the stream ended or the client hung up
                    return
                writer.write(data)
                await writer.drain()
                chunk = asyncio.ensure_future(anext(stream, None))
        finally:
            self._streams.discard(task)
            for pending in (hangup, chunk):
                pending.cancel()
            await asyncio.gather(hangup, chunk, return_exceptions=True)
            await stream.aclose()

    async def _dispatch(self, request: Request) -> Response:
        handler, route, params, path_known = self._router.match(
            request.method, request.path
        )
        if handler is None or route is None:
            status = 405 if path_known else 404
            response = Response.error(
                status,
                f"{'method not allowed' if path_known else 'no such route'}: "
                f"{request.method} {request.path}",
            )
            self._count_request(request.method, request.path, response.status)
            return response
        request.params = params
        started = time.perf_counter()
        with obs_trace.span("serve.request", method=request.method, route=route) as span:
            try:
                response = await handler(request)
            except Exception as exc:
                logger.exception("handler for %s %s crashed", request.method, route)
                response = Response.error(500, f"{type(exc).__name__}: {exc}")
            span.update(status=response.status)
        obs_metrics.histogram(self.request_histogram).observe(
            time.perf_counter() - started
        )
        self._count_request(request.method, route, response.status)
        if response.stream is not None:
            response.stream = self._guarded_stream(response.stream, request.method, route)
        return response

    async def _guarded_stream(
        self, stream: AsyncGenerator[bytes, None], method: str, route: str
    ) -> AsyncGenerator[bytes, None]:
        """``stream``'s chunks; a source that raises is logged and counted.

        Its 200 head is already out, so the failure is one more request of
        the route with status 500, and the response ends where it stopped.
        """
        try:
            async for chunk in stream:
                yield chunk
        except Exception:
            logger.exception("stream for %s %s failed", method, route)
            self._count_request(method, route, 500)
        finally:
            await stream.aclose()

    # -- shared routes -------------------------------------------------

    async def _route_healthz(self, request: Request) -> Response:
        return Response.json(
            {
                "status": "draining" if self.draining else "ok",
                "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            },
            status=503 if self.draining else 200,
        )

    async def _route_metrics(self, request: Request) -> Response:
        return Response.text(obs_metrics.REGISTRY.render_prometheus())
