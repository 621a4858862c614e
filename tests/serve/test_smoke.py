"""Both CI smoke drivers, run against in-thread servers.

``repro.serve.smoke`` drives a ``phoenix serve`` and
``repro.serve.cache_smoke`` a ``phoenix cache serve`` (with two real
``phoenix batch`` subprocesses).  Each must pass on a healthy server and,
when a result is altered, return 1 with a ``FAIL:`` line naming the job.
"""

from repro.bench import PINNED_SUITE
from repro.serve import cache_smoke, smoke
from repro.serve.app import ServeConfig
from repro.serve.client import ServeClient

FIRST_JOB = PINNED_SUITE[0][0]


def run_serve_smoke(handle) -> int:
    return smoke.run_smoke("127.0.0.1", handle.app.bound_port, limit=2, timeout=120.0)


class TestServeSmoke:
    def test_passes_on_a_healthy_server(self, make_server, capsys):
        assert run_serve_smoke(make_server(ServeConfig(port=0, workers=1))) == 0
        captured = capsys.readouterr()
        assert "all 2 served results byte-identical to local compile" in captured.out
        assert captured.out.endswith("serve smoke OK\n")
        assert "FAIL" not in captured.err

    def test_an_altered_served_result_fails_by_name(self, make_server, monkeypatch, capsys):
        real_wait = ServeClient.wait

        def altered_wait(self, job_id, **kwargs):
            summary = real_wait(self, job_id, **kwargs)
            for served in summary.get("results", []):
                if served["name"] == FIRST_JOB:
                    served["result"]["metrics"]["cx_count"] += 1
            return summary

        monkeypatch.setattr(ServeClient, "wait", altered_wait)
        assert run_serve_smoke(make_server(ServeConfig(port=0, workers=1))) == 1
        captured = capsys.readouterr()
        assert "serve smoke OK" not in captured.out
        assert captured.err == (
            f"FAIL: served result for {FIRST_JOB} diverges from a local compile\n"
        )


class TestCacheSmoke:
    def test_passes_on_a_healthy_server(self, make_cache_server, capsys):
        assert cache_smoke.run_smoke(make_cache_server().url, limit=1) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "cache smoke ok: 1 job(s), second batch 100% remote hits, "
            "byte-identical across processes\n"
        )

    def test_an_altered_stored_entry_fails_by_name(self, make_cache_server, capsys):
        handle = make_cache_server()
        store = handle.app.store
        real_put = store.put

        def altered_put(key, value):
            value["metrics"]["cx_count"] += 1
            real_put(key, value)

        store.put = altered_put
        assert cache_smoke.run_smoke(handle.url, limit=1) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"FAIL: server entry for {FIRST_JOB} differs from a local compile "
            "(byte identity broken)\n"
        )
