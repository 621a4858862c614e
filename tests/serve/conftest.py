"""Shared fixtures for the serve tests.

``server`` boots a real :class:`~repro.serve.app.ServeApp` on an
ephemeral port inside a daemon thread running its own event loop — the
same process, so faultlab injections and the metrics registry are
shared with the test — and tears it down through the drain path.
``cache_server`` does the same for a
:class:`~repro.serve.cacheapp.CacheServeApp` (``phoenix cache serve``).
"""

import asyncio
import http.client
import threading
from typing import Optional

import pytest

from repro.obs import metrics as obs_metrics
from repro.serve.app import ServeApp, ServeConfig
from repro.serve.cacheapp import CacheServeApp, CacheServeConfig
from repro.serve.client import ServeClient
from repro.service import faultlab


@pytest.fixture(autouse=True)
def disarm_faultlab():
    faultlab.clear()
    yield
    faultlab.clear()


@pytest.fixture
def clean_metrics():
    obs_metrics.REGISTRY.reset()
    yield obs_metrics.REGISTRY
    obs_metrics.REGISTRY.reset()


class ServerHandle:
    """One in-thread server plus the client pointed at it."""

    def __init__(self, app: ServeApp):
        self.app = app
        self.thread = threading.Thread(
            target=lambda: asyncio.run(app.main()), daemon=True
        )
        self.client: Optional[ServeClient] = None

    def start(self) -> "ServerHandle":
        self.thread.start()
        assert self.app.ready.wait(15), "server failed to start"
        self.client = ServeClient("127.0.0.1", self.app.bound_port, timeout=120)
        return self

    def stop(self, timeout: float = 30.0) -> None:
        self.app.drain_token.set()
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "server did not drain within the timeout"


@pytest.fixture
def make_server():
    """Factory: ``make_server(config=..., app=...) -> ServerHandle``."""
    handles = []

    def factory(config: Optional[ServeConfig] = None, app: Optional[ServeApp] = None):
        if app is None:
            config = config if config is not None else ServeConfig(port=0)
            config.port = 0  # ephemeral, always
            app = ServeApp(config)
        handle = ServerHandle(app).start()
        handles.append(handle)
        return handle

    yield factory
    for handle in handles:
        if handle.thread.is_alive():
            handle.stop()


@pytest.fixture
def server(make_server):
    """A default server: one worker, inline (fork-free and deterministic)."""
    return make_server(ServeConfig(port=0, workers=1, queue_size=8))


class CacheServerHandle:
    """One in-thread cache server plus a raw HTTP helper."""

    def __init__(self, app: CacheServeApp):
        self.app = app
        self.thread = threading.Thread(
            target=lambda: asyncio.run(app.main()), daemon=True
        )

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.app.bound_port}"

    def start(self) -> "CacheServerHandle":
        self.thread.start()
        assert self.app.ready.wait(15), "cache server failed to start"
        return self

    def stop(self, timeout: float = 30.0) -> None:
        self.app.drain_token.set()
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "cache server did not drain"

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.app.bound_port, timeout=10
        )
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()


@pytest.fixture
def make_cache_server(tmp_path):
    """Factory: ``make_cache_server(**config) -> CacheServerHandle`` on an
    ephemeral port (``cache_dir`` defaults to a fresh temp directory)."""
    handles = []

    def factory(**config) -> CacheServerHandle:
        config.setdefault("cache_dir", str(tmp_path / "srv"))
        app = CacheServeApp(CacheServeConfig(port=0, **config))
        handle = CacheServerHandle(app).start()
        handles.append(handle)
        return handle

    yield factory
    for handle in handles:
        if handle.thread.is_alive():
            handle.stop()


@pytest.fixture
def cache_server(make_cache_server):
    """A cache server with a small (64 KiB) entry cap."""
    return make_cache_server(max_entry_bytes=64 * 1024)
