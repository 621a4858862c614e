"""Blocking client for a running ``phoenix serve`` instance.

Stdlib only: REST over ``http.client``, the event stream over a raw
socket speaking the same RFC 6455 framing as the server
(:mod:`repro.serve.ws`).  This is the client the test suite, both CI
smoke drivers, and ``examples/serve_client.py`` all use — if it can drive
the server, so can anything that speaks HTTP.  :meth:`~ServeClient.healthz`,
:meth:`~ServeClient.metrics` and :meth:`~ServeClient.wait_ready` use only
the routes every :class:`~repro.serve.http.HTTPApp` serves, so they work
against ``phoenix cache serve`` too.

Typical round trip::

    with ServeClient("127.0.0.1", 8077) as client:
        job = client.submit([{"benchmark": "H2"}], name="demo")
        for event in client.events(job["id"]):
            print(event)            # ProgressEvents as dicts, then "done"
        final = client.job(job["id"])  # results embedded once terminal
"""

from __future__ import annotations

import base64
import http.client
import json
import os
import socket
import time
from typing import Any, Dict, Iterator, List, Optional, Union

from . import ws

__all__ = ["ServeClient", "ServerError"]


class ServerError(Exception):
    """A non-2xx response; carries status and the decoded error body."""

    def __init__(self, status: int, body: Any, retry_after: Optional[int] = None):
        message = body.get("error") if isinstance(body, dict) else str(body)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.body = body
        self.retry_after = retry_after


class ServeClient:
    """Thin blocking wrapper over the server's HTTP+WS surface.

    ``healthz``/``metrics``/``wait_ready`` work against either server
    (``phoenix serve`` or ``phoenix cache serve``); the job methods need
    ``phoenix serve``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8077, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass  # connections are per-call; nothing held open

    # -- REST ----------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: Optional[Any] = None
    ) -> "tuple[int, Dict[str, str], bytes]":
        connection = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            return (
                response.status,
                {name.lower(): value for name, value in response.getheaders()},
                raw,
            )
        finally:
            connection.close()

    def _json(self, method: str, path: str, payload: Optional[Any] = None) -> Any:
        status, headers, raw = self._request(method, path, payload)
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else None
        except ValueError:
            decoded = raw.decode("utf-8", "replace")
        if status >= 400:
            retry_after = headers.get("retry-after")
            raise ServerError(
                status, decoded, int(retry_after) if retry_after else None
            )
        return decoded

    def healthz(self) -> Dict[str, Any]:
        # /healthz answers 503 while draining but still carries a body.
        status, _headers, raw = self._request("GET", "/healthz")
        payload = json.loads(raw.decode("utf-8"))
        payload["http_status"] = status
        return payload

    def metrics(self) -> str:
        status, _headers, raw = self._request("GET", "/metrics")
        if status != 200:
            raise ServerError(status, raw.decode("utf-8", "replace"))
        return raw.decode("utf-8")

    def stats(self) -> Dict[str, Any]:
        return self._json("GET", "/v1/stats")

    def submit(
        self,
        jobs: Union[List[Dict[str, Any]], Dict[str, Any]],
        name: str = "batch",
        options: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """POST a batch; raises :class:`ServerError` (429 carries retry_after)."""
        entries = jobs if isinstance(jobs, list) else [jobs]
        payload: Dict[str, Any] = {"name": name, "jobs": entries}
        if options:
            payload["options"] = options
        return self._json("POST", "/v1/jobs", payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/v1/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 120.0, poll: float = 0.1) -> Dict[str, Any]:
        """Poll until the job is terminal; returns its final summary."""
        deadline = time.monotonic() + timeout
        while True:
            summary = self.job(job_id)
            if summary["state"] in ("done", "error", "cancelled"):
                return summary
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {summary['state']!r} after {timeout}s"
                )
            time.sleep(poll)

    def wait_ready(self, timeout: float = 30.0, poll: float = 0.1) -> Dict[str, Any]:
        """Block until /healthz answers (server start-up in scripts/CI)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except (ConnectionError, OSError):
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"server at {self.host}:{self.port} not ready after {timeout}s"
                    ) from None
                time.sleep(poll)

    # -- WebSocket event stream ---------------------------------------

    def events(self, job_id: str, timeout: Optional[float] = None) -> Iterator[Dict[str, Any]]:
        """Yield the job's event stream (history first, then live).

        Ends when the server closes the stream after the terminal
        ``{"type": "done", ...}`` event.  ``timeout`` bounds each frame
        read (defaults to the client timeout).
        """
        sock = socket.create_connection(
            (self.host, self.port), timeout=timeout or self.timeout
        )
        try:
            key = base64.b64encode(os.urandom(16)).decode("ascii")
            handshake = (
                f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Upgrade: websocket\r\n"
                "Connection: Upgrade\r\n"
                f"Sec-WebSocket-Key: {key}\r\n"
                "Sec-WebSocket-Version: 13\r\n\r\n"
            )
            sock.sendall(handshake.encode("ascii"))
            status, headers, buffered = self._read_handshake_response(sock)
            if status != 101:
                raise ServerError(status, f"WebSocket upgrade refused ({status})")
            expected = ws.accept_key(key)
            if headers.get("sec-websocket-accept") != expected:
                raise ws.WebSocketError("Sec-WebSocket-Accept mismatch")
            # Bytes read past the handshake terminator are the head of the
            # first frame; serve them before touching the socket again.
            leftovers = bytearray(buffered)

            def read_exact(count: int) -> bytes:
                chunks = bytearray()
                while leftovers and len(chunks) < count:
                    take = min(count - len(chunks), len(leftovers))
                    chunks += leftovers[:take]
                    del leftovers[:take]
                while len(chunks) < count:
                    chunk = sock.recv(count - len(chunks))
                    if not chunk:
                        raise ws.WebSocketError("connection closed mid-frame")
                    chunks += chunk
                return bytes(chunks)

            while True:
                opcode, payload = ws.decode_frame(read_exact)
                if opcode == ws.OP_CLOSE:
                    sock.sendall(ws.encode_frame(payload, ws.OP_CLOSE, mask=True))
                    return
                if opcode == ws.OP_PING:
                    sock.sendall(ws.encode_frame(payload, ws.OP_PONG, mask=True))
                    continue
                if opcode == ws.OP_TEXT:
                    yield json.loads(payload.decode("utf-8"))
        finally:
            sock.close()

    @staticmethod
    def _read_handshake_response(
        sock: socket.socket,
    ) -> "tuple[int, Dict[str, str], bytes]":
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(4096)
            if not chunk:
                raise ws.WebSocketError("connection closed during WS handshake")
            data = data + chunk
        raw_head, remainder = data.split(b"\r\n\r\n", 1)
        head = raw_head.decode("latin-1")
        lines = head.split("\r\n")
        status = int(lines[0].split()[1])
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers, remainder
