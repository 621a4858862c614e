"""HTTP parsing, response encoding, and router unit tests."""

import asyncio
import json

import pytest

from repro.serve.http import PayloadTooLarge, Request, Response, Router, read_request


def parse(raw: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(run())


def test_parse_get_with_query():
    request = parse(b"GET /v1/stats?window=60&full=1 HTTP/1.1\r\nHost: x\r\n\r\n")
    assert request.method == "GET"
    assert request.path == "/v1/stats"
    assert request.query == {"window": "60", "full": "1"}
    assert request.headers["host"] == "x"
    assert request.keep_alive


def test_parse_post_body_and_json():
    body = json.dumps({"jobs": [{"benchmark": "LiH_frz_JW"}]}).encode()
    raw = (
        b"POST /v1/jobs HTTP/1.1\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body
    )
    request = parse(raw)
    assert request.method == "POST"
    assert request.json() == {"jobs": [{"benchmark": "LiH_frz_JW"}]}


def test_parse_clean_eof_returns_none():
    assert parse(b"") is None


@pytest.mark.parametrize(
    "raw",
    [
        b"GET /\r\n\r\n",  # missing HTTP version
        b"NONSENSE\r\n\r\n",
        b"GET / HTTP/1.1\r\nBadHeaderNoColon\r\n\r\n",
        b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    ],
)
def test_parse_malformed_raises(raw):
    with pytest.raises(ValueError):
        parse(raw)


def test_response_encode_and_json():
    response = Response.json({"ok": True}, status=202, headers={"Retry-After": "3"})
    wire = response.encode(keep_alive=False)
    head, body = wire.split(b"\r\n\r\n", 1)
    assert head.startswith(b"HTTP/1.1 202 Accepted")
    assert b"Retry-After: 3" in head
    assert b"Connection: close" in head
    assert json.loads(body) == {"ok": True}
    assert int(dict(
        line.decode().split(": ", 1) for line in head.split(b"\r\n")[1:]
    )["Content-Length"]) == len(body)


def test_router_match_params_405_404():
    router = Router()

    async def handler(request: Request) -> Response:
        return Response.json({})

    router.add("GET", "/v1/jobs/{id}", handler)
    router.add("GET", "/v1/jobs/{id}/events", handler)

    found, route, params, known = router.match("GET", "/v1/jobs/abc123")
    assert found is handler
    assert route == "/v1/jobs/{id}"
    assert params == {"id": "abc123"}
    assert known

    found, route, params, known = router.match("GET", "/v1/jobs/j7/events")
    assert params == {"id": "j7"}

    found, _route, _params, known = router.match("DELETE", "/v1/jobs/abc123")
    assert found is None and known  # 405: path exists, method does not

    found, _route, _params, known = router.match("GET", "/nope")
    assert found is None and not known  # 404


def test_oversized_content_length_raises_payload_too_large():
    async def run(max_body):
        reader = asyncio.StreamReader()
        reader.feed_data(b"PUT /x HTTP/1.1\r\nContent-Length: 11\r\n\r\n" + b"x" * 11)
        reader.feed_eof()
        return await read_request(reader, max_body=max_body)

    with pytest.raises(PayloadTooLarge, match="11 bytes exceeds 10"):
        asyncio.run(run(10))
    assert issubclass(PayloadTooLarge, ValueError)  # still a bad request
    assert asyncio.run(run(11)).body == b"x" * 11  # the limit is inclusive
