"""Streamed responses in the shared HTTP core, and the client's SSE reader.

:class:`StreamApp` is the smallest :class:`~repro.serve.http.HTTPApp`: its
``GET /v1/jobs/{id}/events`` route streams whatever the test feeds it, so
these tests pin the core's streaming contract (chunk order, hang-up,
``stop``/``drain`` cuts, keep-alive before a stream) and
:meth:`ServeClient.events` independently of the compile service.
"""

import asyncio
import http.client
import logging
import socket
import threading
import time
from types import SimpleNamespace

import pytest

from repro.serve import http as serve_http
from repro.serve.client import ServeClient, ServerError
from repro.serve.http import HTTPApp, Request, Response


class StreamApp(HTTPApp):
    """Streams chunks fed through :meth:`feed`; ``None`` ends the stream.

    Job id ``live`` streams the fed chunks, ``raises`` one chunk and then
    an exception, ``fixed`` the bytes in :attr:`fixed_body`; any other id
    answers 404.  :attr:`counted` records every ``_count_request`` call.
    """

    name = "stream-test"
    request_histogram = "repro_test_stream_request_seconds"

    def __init__(self) -> None:
        super().__init__(SimpleNamespace(host="127.0.0.1", port=0))
        self.fixed_body = b""
        self.opened = threading.Event()
        self.closed = threading.Event()
        self.counted: list = []
        self._chunks: "asyncio.Queue[bytes | None] | None" = None

    def _on_start(self) -> None:
        self._chunks = asyncio.Queue()

    def _count_request(self, method: str, route: str, status: int) -> None:
        self.counted.append((method, route, status))

    def _build_router(self):
        router = super()._build_router()
        router.add("GET", "/v1/jobs/{id}/events", self._route_events)
        return router

    def feed(self, chunk) -> None:
        assert self.loop is not None and self._chunks is not None
        self.loop.call_soon_threadsafe(self._chunks.put_nowait, chunk)

    async def _route_events(self, request: Request) -> Response:
        source = {"live": self._live, "raises": self._raises, "fixed": self._fixed}
        make = source.get(request.params["id"])
        if make is None:
            return Response.error(404, f"no such job: {request.params['id']}")
        return Response(content_type="text/event-stream", stream=make())

    async def _live(self):
        self.opened.set()
        try:
            while (chunk := await self._chunks.get()) is not None:
                yield chunk
        finally:
            self.closed.set()

    async def _raises(self):
        yield b"data: {}\n\n"
        raise RuntimeError("source failed")

    async def _fixed(self):
        yield self.fixed_body


@pytest.fixture
def stream_app():
    app = StreamApp()
    thread = threading.Thread(target=lambda: asyncio.run(app.main()), daemon=True)
    thread.start()
    assert app.ready.wait(15), "stream app failed to start"
    yield app
    app.drain_token.set()
    app.feed(None)
    thread.join(30)
    assert not thread.is_alive(), "stream app did not drain"


def open_stream(app: StreamApp, job_id: str = "live", timeout: float = 10.0):
    """A raw socket that has sent the events request: ``(socket, reader)``."""
    sock = socket.create_connection(("127.0.0.1", app.bound_port), timeout=timeout)
    sock.sendall(f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\nHost: x\r\n\r\n".encode())
    return sock, sock.makefile("rb")


def read_head(reader) -> dict:
    status = reader.readline()
    assert status.startswith(b"HTTP/1.1 200 "), status
    headers = {}
    while (line := reader.readline()) != b"\r\n":
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return headers


# -- the streamed head -------------------------------------------------------


async def _nothing():
    yield b""


def test_streamed_head_closes_even_for_a_keep_alive_request():
    wire = Response(content_type="text/event-stream", stream=_nothing()).encode(
        keep_alive=True
    )
    head, body = wire.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 200 OK")
    assert b"Connection: close" in head
    assert b"Content-Length" not in head
    assert b"Content-Type: text/event-stream" in head
    assert body == b""  # the stream's chunks are the body


def test_streamed_head_keeps_explicit_headers():
    response = Response(
        content_type="text/event-stream",
        headers={"Cache-Control": "no-cache", "Connection": "close"},
        stream=_nothing(),
    )
    head = response.encode().split(b"\r\n\r\n", 1)[0].split(b"\r\n")
    assert b"Cache-Control: no-cache" in head
    assert head.count(b"Connection: close") == 1
    assert not any(line.startswith(b"Content-Length") for line in head)


# -- the connection loop -----------------------------------------------------


@pytest.mark.parametrize(
    "chunks",
    [[b"a"], [b"data: 1\n\n", b"data: 2\n\n"], [b"x" * 300_000, b"y"]],
    ids=["one", "two-records", "large"],
)
def test_chunks_arrive_in_order_and_the_response_ends_with_the_stream(
    stream_app, chunks
):
    connection = http.client.HTTPConnection("127.0.0.1", stream_app.bound_port, timeout=10)
    try:
        connection.request("GET", "/v1/jobs/live/events")
        for chunk in chunks:
            stream_app.feed(chunk)
        stream_app.feed(None)
        response = connection.getresponse()
        assert response.status == 200
        assert response.getheader("content-type") == "text/event-stream"
        assert response.getheader("connection") == "close"
        assert response.getheader("content-length") is None
        assert response.read() == b"".join(chunks)  # returns: the server closed
    finally:
        connection.close()
    assert stream_app.closed.wait(10)


def test_each_chunk_is_sent_before_the_next_is_produced(stream_app):
    sock, reader = open_stream(stream_app)
    try:
        read_head(reader)
        stream_app.feed(b"first\n")
        assert reader.readline() == b"first\n"  # while the source still waits
        stream_app.feed(b"second\n")
        assert reader.readline() == b"second\n"
        stream_app.feed(None)
        assert reader.read() == b""
    finally:
        reader.close()
        sock.close()


def test_client_hangup_closes_the_stream_source(stream_app):
    sock, reader = open_stream(stream_app)
    read_head(reader)
    stream_app.feed(b"one\n")
    assert reader.readline() == b"one\n"
    reader.close()
    sock.close()
    assert stream_app.closed.wait(10), "the source outlived the client"
    assert not stream_app._streams
    with ServeClient("127.0.0.1", stream_app.bound_port, timeout=10) as client:
        assert client.healthz()["http_status"] == 200


def test_a_stream_after_keep_alive_requests_on_one_connection(stream_app):
    connection = http.client.HTTPConnection("127.0.0.1", stream_app.bound_port, timeout=10)
    try:
        for _ in range(2):
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("connection") == "keep-alive"
            response.read()
        connection.request("GET", "/v1/jobs/live/events")
        stream_app.feed(b"data: {}\n\n")
        stream_app.feed(None)
        response = connection.getresponse()
        assert response.getheader("connection") == "close"
        assert response.read() == b"data: {}\n\n"
    finally:
        connection.close()


def test_a_stream_that_raises_ends_the_response(stream_app):
    sock, reader = open_stream(stream_app, "raises")
    try:
        read_head(reader)
        assert reader.read() == b"data: {}\n\n"  # then the connection ends
    finally:
        reader.close()
        sock.close()
    with ServeClient("127.0.0.1", stream_app.bound_port, timeout=10) as client:
        assert client.healthz()["http_status"] == 200


def test_a_raising_source_is_logged_and_counted_not_left_to_the_loop(stream_app, caplog):
    unhandled = []
    stream_app.loop.call_soon_threadsafe(
        stream_app.loop.set_exception_handler, lambda loop, context: unhandled.append(context)
    )
    caplog.set_level(logging.ERROR, logger=serve_http.__name__)
    sock, reader = open_stream(stream_app, "raises")
    try:
        read_head(reader)
        assert reader.read() == b"data: {}\n\n"
    finally:
        reader.close()
        sock.close()
    with ServeClient("127.0.0.1", stream_app.bound_port, timeout=10) as client:
        assert client.healthz()["http_status"] == 200
    records = [r for r in caplog.records if r.name == serve_http.__name__]
    assert [r.getMessage() for r in records] == [
        "stream for GET /v1/jobs/{id}/events failed"
    ]
    assert records[0].exc_info[0] is RuntimeError
    assert stream_app.counted.count(("GET", "/v1/jobs/{id}/events", 500)) == 1
    assert unhandled == []


# -- shutdown ----------------------------------------------------------------


def test_stop_cuts_a_stream_whose_source_never_ends():
    app = StreamApp()
    thread = threading.Thread(target=lambda: asyncio.run(app.main()), daemon=True)
    thread.start()
    assert app.ready.wait(15)
    sock, reader = open_stream(app)
    try:
        read_head(reader)
        assert app.opened.wait(10)
        asyncio.run_coroutine_threadsafe(app.stop(), app.loop).result(timeout=15)
        assert reader.read() == b""
        assert app.closed.is_set()
    finally:
        reader.close()
        sock.close()
        thread.join(15)
    assert not thread.is_alive(), "main() did not return after stop()"


def test_drain_lets_a_stream_finish_within_the_grace(stream_app):
    sock, reader = open_stream(stream_app)
    try:
        read_head(reader)
        assert stream_app.opened.wait(10)
        stream_app.drain_token.set()
        deadline = time.monotonic() + 10
        while not stream_app.draining:
            assert time.monotonic() < deadline, "the drain never started"
            time.sleep(0.01)
        stream_app.feed(b"late-1\n")
        stream_app.feed(b"late-2\n")
        stream_app.feed(None)
        assert reader.read() == b"late-1\nlate-2\n"
    finally:
        reader.close()
        sock.close()


def test_drain_cuts_a_stream_that_outlasts_the_grace(monkeypatch):
    monkeypatch.setattr(serve_http, "STREAM_GRACE_SECONDS", 0.2)
    app = StreamApp()
    thread = threading.Thread(target=lambda: asyncio.run(app.main()), daemon=True)
    thread.start()
    assert app.ready.wait(15)
    sock, reader = open_stream(app)
    try:
        read_head(reader)
        assert app.opened.wait(10)
        app.drain_token.set()
        thread.join(15)
        assert not thread.is_alive(), "drain waited on a stream past its grace"
        assert reader.read() == b""
        assert app.closed.is_set()
    finally:
        reader.close()
        sock.close()


# -- ServeClient.events ------------------------------------------------------


def test_client_events_skip_comments_blank_lines_and_other_fields(stream_app):
    stream_app.fixed_body = (
        b": a comment\n\n"
        b"event: progress\nid: 7\ndata: {\"n\": 1}\n\n"
        b"retry: 100\n\n"
        b"data: {\"n\": 2}\n\n"
    )
    with ServeClient("127.0.0.1", stream_app.bound_port, timeout=10) as client:
        assert list(client.events("fixed")) == [{"n": 1}, {"n": 2}]


@pytest.mark.parametrize("line", [b'data: {"type": "done"}', b'data:{"type": "done"}'])
def test_client_events_read_data_with_or_without_a_space(stream_app, line):
    stream_app.fixed_body = line + b"\n\n"
    with ServeClient("127.0.0.1", stream_app.bound_port, timeout=10) as client:
        assert list(client.events("fixed")) == [{"type": "done"}]


def test_client_events_yield_each_event_while_the_stream_is_open(stream_app):
    with ServeClient("127.0.0.1", stream_app.bound_port, timeout=10) as client:
        events = client.events("live")
        stream_app.feed(b'data: {"n": 1}\n\n')
        assert next(events) == {"n": 1}  # before the stream has ended
        stream_app.feed(b'data: {"n": 2}\n\n')
        assert next(events) == {"n": 2}
        stream_app.feed(None)
        assert list(events) == []


def test_client_events_raise_server_error_for_a_non_200(stream_app):
    with ServeClient("127.0.0.1", stream_app.bound_port, timeout=10) as client:
        with pytest.raises(ServerError) as caught:
            list(client.events("nope"))
    assert caught.value.status == 404
    assert caught.value.body == {"error": "no such job: nope", "status": 404}


def test_client_events_timeout_bounds_each_read(stream_app):
    with ServeClient("127.0.0.1", stream_app.bound_port, timeout=30) as client:
        with pytest.raises(TimeoutError):
            list(client.events("live", timeout=0.3))
    assert stream_app.closed.wait(10), "the client's close did not end the stream"
