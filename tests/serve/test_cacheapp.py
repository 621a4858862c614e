"""Protocol-level tests for the ``phoenix cache serve`` HTTP surface.

A real :class:`CacheServeApp` runs on an ephemeral port in a daemon
thread; requests go through :class:`http.client` so status lines,
headers, and bodies are exercised exactly as a
:class:`~repro.service.remotecache.RemoteCacheStore` would see them.
"""

import json

import pytest

from repro.serialize.jsonutil import canonical_json_bytes

KEY = "a" * 16 + "-" + "b" * 16
ENTRY = {"metrics": {"depth": 3}, "circuit": ["h 0", "cx 0 1"], "z": 1}


class TestCacheRoutes:
    def test_put_get_delete_round_trip(self, cache_server):
        status, _ = cache_server.request(
            "PUT", f"/v1/cache/{KEY}", body=canonical_json_bytes(ENTRY)
        )
        assert status == 204
        status, body = cache_server.request("GET", f"/v1/cache/{KEY}")
        assert status == 200
        # GET re-encodes through canonical JSON: byte-identical for every
        # reader, regardless of how the writer formatted the payload.
        assert body == canonical_json_bytes(ENTRY)
        status, body = cache_server.request("DELETE", f"/v1/cache/{KEY}")
        assert status == 200
        assert json.loads(body) == {"deleted": KEY}
        status, _ = cache_server.request("DELETE", f"/v1/cache/{KEY}")
        assert status == 404

    def test_non_canonical_writer_still_serves_canonical_bytes(self, cache_server):
        ugly = json.dumps(ENTRY, indent=4, sort_keys=False).encode("utf-8")
        assert ugly != canonical_json_bytes(ENTRY)
        cache_server.request("PUT", f"/v1/cache/{KEY}", body=ugly)
        _, body = cache_server.request("GET", f"/v1/cache/{KEY}")
        assert body == canonical_json_bytes(ENTRY)

    def test_missing_key_is_404(self, cache_server):
        status, body = cache_server.request("GET", f"/v1/cache/{'f' * 40}")
        assert status == 404
        assert "no such key" in json.loads(body)["error"]

    @pytest.mark.parametrize("bad", ["..", ".hidden", "a b", "k%2Fey", "€"])
    def test_traversal_shaped_keys_are_400(self, cache_server, bad):
        from urllib.parse import quote

        for method in ("GET", "PUT", "DELETE"):
            status, body = cache_server.request(
                method, f"/v1/cache/{quote(bad)}",
                body=b"{}" if method == "PUT" else None,
            )
            assert status == 400, (method, bad)
            assert "invalid cache key" in json.loads(body)["error"]

    def test_oversized_payload_is_413(self, cache_server):
        huge = json.dumps({"pad": "x" * (64 * 1024)}).encode("utf-8")
        status, _ = cache_server.request("PUT", f"/v1/cache/{KEY}", body=huge)
        assert status == 413
        status, _ = cache_server.request("GET", f"/v1/cache/{KEY}")
        assert status == 404  # nothing was stored

    def test_non_object_and_unparseable_bodies_are_400(self, cache_server):
        status, body = cache_server.request(
            "PUT", f"/v1/cache/{KEY}", body=b"[1, 2, 3]"
        )
        assert status == 400
        assert "JSON object" in json.loads(body)["error"]
        status, _ = cache_server.request("PUT", f"/v1/cache/{KEY}", body=b"{nope")
        assert status == 400

    def test_keys_lists_sorted(self, cache_server):
        first, second = "b" + KEY[1:], "a" + KEY[1:]
        for key in (first, second):
            cache_server.request(
                "PUT", f"/v1/cache/{key}", body=canonical_json_bytes(ENTRY)
            )
        status, body = cache_server.request("GET", "/v1/keys")
        assert status == 200
        payload = json.loads(body)
        assert payload["keys"] == sorted([first, second])
        assert payload["count"] == 2

    def test_unknown_route_404_and_wrong_method_405(self, cache_server):
        status, _ = cache_server.request("GET", "/v2/nope")
        assert status == 404
        status, _ = cache_server.request("POST", f"/v1/cache/{KEY}")
        assert status == 405


class TestOpsRoutes:
    def test_healthz_and_stats(self, cache_server):
        status, body = cache_server.request("GET", "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        cache_server.request(
            "PUT", f"/v1/cache/{KEY}", body=canonical_json_bytes(ENTRY)
        )
        status, body = cache_server.request("GET", "/v1/stats")
        assert status == 200
        stats = json.loads(body)
        assert stats["draining"] is False
        assert stats["usage"]["entries"] == 1
        assert stats["session"]["puts"] == 1

    def test_metrics_expose_route_and_payload_series(
        self, cache_server, clean_metrics
    ):
        cache_server.request(
            "PUT", f"/v1/cache/{KEY}", body=canonical_json_bytes(ENTRY)
        )
        cache_server.request("GET", f"/v1/cache/{KEY}")
        cache_server.request("GET", f"/v1/cache/{'f' * 40}")
        _, body = cache_server.request("GET", "/metrics")
        text = body.decode("utf-8")
        assert 'repro_remote_cache_requests_total{route="/v1/cache/{key}",status="204"} 1' in text
        assert 'repro_remote_cache_requests_total{route="/v1/cache/{key}",status="200"} 1' in text
        assert 'repro_remote_cache_requests_total{route="/v1/cache/{key}",status="404"} 1' in text
        assert "repro_remote_cache_server_hits_total 1" in text
        assert "repro_remote_cache_server_misses_total 1" in text
        assert "repro_remote_cache_server_puts_total 1" in text
        assert 'repro_remote_cache_payload_bytes_bucket' in text

    def test_drain_persists_entries_for_the_next_boot(self, tmp_path, make_cache_server):
        handle = make_cache_server(cache_dir=str(tmp_path / "srv"))
        handle.request(
            "PUT", f"/v1/cache/{KEY}", body=canonical_json_bytes(ENTRY)
        )
        handle.stop()
        revived = make_cache_server(cache_dir=str(tmp_path / "srv"))
        status, body = revived.request("GET", f"/v1/cache/{KEY}")
        assert status == 200
        assert body == canonical_json_bytes(ENTRY)
