"""The surface both servers get from the shared :class:`HTTPApp` core.

Each test runs against a live in-thread ``phoenix serve``
(:class:`ServeApp`) and ``phoenix cache serve`` (:class:`CacheServeApp`)
alike, over a raw socket so the exact status line is what is checked.
Routing (404/405) and the other per-app routes are covered by
``test_server.py`` and ``test_cacheapp.py``.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.cacheapp import CacheServeApp, CacheServeConfig

#: Each app's request counter for one ``GET /healthz`` — the label sets
#: differ between the two servers and must stay as they are.
HEALTHZ_SERIES = {
    "serve": 'repro_serve_requests_total{method="GET",route="/healthz",status="200"} 1',
    "cache": 'repro_remote_cache_requests_total{route="/healthz",status="200"} 1',
}


@pytest.fixture(params=["serve", "cache"])
def live(request, make_server, tmp_path):
    if request.param == "serve":
        app = ServeApp(ServeConfig(port=0, workers=1, queue_size=8))
    else:
        app = CacheServeApp(CacheServeConfig(cache_dir=str(tmp_path / "srv"), port=0))
    return request.param, make_server(app=app)


def exchange(port: int, raw: bytes):
    """Send ``raw``; return ``(status, headers, body)`` of the one response."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(raw)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed before a response: {data!r}"
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        while len(body) < int(headers["Content-Length"]):
            chunk = sock.recv(65536)
            assert chunk, "connection closed mid-body"
            body += chunk
    return int(lines[0].split()[1]), headers, body


def get(port: int, path: str):
    return exchange(port, f"GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n".encode())


def test_malformed_request_line_is_400(live):
    _name, handle = live
    status, headers, body = exchange(handle.app.bound_port, b"NONSENSE\r\n\r\n")
    assert status == 400
    assert headers["Connection"] == "close"
    assert "malformed request line" in json.loads(body)["error"]


def test_oversized_content_length_is_413_before_any_body(live):
    _name, handle = live
    status, headers, body = exchange(
        handle.app.bound_port,
        b"PUT /v1/cache/k HTTP/1.1\r\nContent-Length: 1000000000000\r\n\r\n",
    )
    assert status == 413
    assert headers["Connection"] == "close"
    assert "exceeds" in json.loads(body)["error"]


def test_metrics_is_prometheus_text_with_the_app_series(live, clean_metrics):
    name, handle = live
    assert get(handle.app.bound_port, "/healthz")[0] == 200
    status, headers, body = get(handle.app.bound_port, "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain")
    text = body.decode("utf-8")
    assert "# TYPE" in text
    assert HEALTHZ_SERIES[name] in text


def test_healthz_turns_503_once_draining(live):
    _name, handle = live
    app = handle.app
    assert get(app.bound_port, "/healthz")[0] == 200

    # Hold the drain inside the app's hook, while the listener is still
    # open, so the draining state is observable from outside.
    release = threading.Event()
    wind_down = app._on_drain

    async def held_drain():
        await asyncio.to_thread(release.wait, 30)
        await wind_down()

    app._on_drain = held_drain
    app.drain_token.set()
    try:
        deadline = time.monotonic() + 10
        while get(app.bound_port, "/healthz")[0] != 503:
            assert time.monotonic() < deadline, "healthz never reported draining"
            time.sleep(0.02)
        status, _headers, body = get(app.bound_port, "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "draining"
    finally:
        release.set()
    handle.thread.join(30)
    assert not handle.thread.is_alive(), "server did not finish draining"
