"""``phoenix cache`` output against a disk directory and a cache server.

Every action's stdout and exit code is pinned for both tiers: the local
one (``--cache disk:DIR``) and a live in-thread ``phoenix cache serve``
(``--cache http://host:port``).  User errors exit 2 with one ``error:``
line on stderr.
"""

import json
import re
import socket

import pytest

from repro.serialize.results import terms_to_dict
from repro.service.cli import main
from repro.service.shardcache import DiskCacheStore


@pytest.fixture
def program_file(tmp_path, tiny_program):
    path = tmp_path / "program.json"
    path.write_text(json.dumps(terms_to_dict(tiny_program)), encoding="utf-8")
    return path


def run(capsys, *argv):
    """``main(argv)`` -> (exit code, stdout, stderr)."""
    capsys.readouterr()
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_user_error(code, err, fragment):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err


@pytest.fixture
def disk_cache(tmp_path, program_file, capsys):
    """A disk cache holding one compiled entry; yields (spec, dir, key)."""
    cache_dir = tmp_path / "cache"
    spec = f"disk:{cache_dir}"
    assert run(capsys, "compile", "--input", str(program_file), "--cache", spec)[0] == 0
    [key] = DiskCacheStore(cache_dir).keys()
    return spec, cache_dir, key


@pytest.fixture
def remote_cache(cache_server, program_file, capsys):
    """A cache server holding one compiled entry; yields (url, handle, key)."""
    url = cache_server.url
    assert run(capsys, "compile", "--input", str(program_file), "--cache", url)[0] == 0
    [key] = cache_server.app.store.keys()
    return url, cache_server, key


class TestDiskCache:
    def test_info(self, disk_cache, capsys):
        spec, cache_dir, _ = disk_cache
        size = DiskCacheStore(cache_dir).usage()["total_bytes"]
        assert run(capsys, "cache", "info", "--cache", spec) == (
            0, f"cache: {cache_dir}\nentries: 1\nsize_bytes: {size}\n", "",
        )

    def test_stats(self, disk_cache, capsys):
        spec, cache_dir, _ = disk_cache
        size = DiskCacheStore(cache_dir).usage()["total_bytes"]
        code, out, err = run(capsys, "cache", "stats", "--cache", spec)
        assert (code, err) == (0, "")
        assert re.fullmatch(
            rf"cache: {re.escape(str(cache_dir))}\nentries: 1\nsize_bytes: {size}\n"
            r"shards: 1\nmax_shard_entries: 1\n"
            r"oldest_entry_age_s: \d+\nnewest_entry_age_s: \d+\n",
            out,
        ), out

    def test_ls_then_clear(self, disk_cache, capsys):
        spec, _, key = disk_cache
        assert run(capsys, "cache", "ls", "--cache", spec) == (0, f"{key}\n", "")
        assert run(capsys, "cache", "clear", "--cache", spec) == (0, "removed 1 entries\n", "")
        assert run(capsys, "cache", "ls", "--cache", spec) == (0, "", "")

    @pytest.mark.parametrize("max_bytes", ["200M", "200mb", "1g", "1048576"])
    def test_prune_accepts_size_suffixes(self, disk_cache, max_bytes, capsys):
        spec, cache_dir, _ = disk_cache
        size = DiskCacheStore(cache_dir).usage()["total_bytes"]
        assert run(
            capsys, "cache", "prune", "--cache", spec,
            "--max-bytes", max_bytes, "--max-age", "7d",
        ) == (0, f"removed 0 entries (0 bytes); kept 1 entries ({size} bytes)\n", "")

    def test_prune_to_zero_bytes_evicts(self, disk_cache, capsys):
        spec, cache_dir, _ = disk_cache
        size = DiskCacheStore(cache_dir).usage()["total_bytes"]
        assert run(capsys, "cache", "prune", "--cache", spec, "--max-bytes", "0") == (
            0, f"removed 1 entries ({size} bytes); kept 0 entries (0 bytes)\n", "",
        )

    @pytest.mark.parametrize(
        "flags, message",
        [
            ([], "error: prune needs --max-bytes and/or --max-age\n"),
            (["--max-bytes", "lots"],
             "error: invalid size 'lots'; expected e.g. 1048576, 512k, 200M, 1G\n"),
            (["--max-bytes", "12MB!"],
             "error: invalid size '12mb!'; expected e.g. 1048576, 512k, 200M, 1G\n"),
            (["--max-age", "soon"],
             "error: invalid age 'soon'; expected e.g. 3600, 90m, 12h, 7d\n"),
            (["--max-age", " 3X "],
             "error: invalid age '3x'; expected e.g. 3600, 90m, 12h, 7d\n"),
        ],
    )
    def test_prune_user_errors(self, disk_cache, flags, message, capsys):
        spec, _, _ = disk_cache
        assert run(capsys, "cache", "prune", "--cache", spec, *flags) == (2, "", message)

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("memory:", "'cache info' needs a disk or remote cache, got 'memory:'"),
            ("disk:/tmp/x,http://127.0.0.1:9", "cache ops take one tier at a time"),
        ],
    )
    def test_unusable_specs_are_user_errors(self, spec, fragment, capsys):
        code, out, err = run(capsys, "cache", "info", "--cache", spec)
        assert out == ""
        assert_user_error(code, err, fragment)

    def test_missing_spec_is_a_user_error(self, capsys):
        code, out, err = run(capsys, "cache", "info")
        assert out == ""
        assert_user_error(code, err, "provide --cache SPEC")


class TestRemoteCache:
    def test_info(self, remote_cache, capsys):
        url, handle, _ = remote_cache
        size = handle.app.store.usage()["total_bytes"]
        assert run(capsys, "cache", "info", "--cache", url) == (
            0, f"cache: {url}\nentries: 1\nsize_bytes: {size}\n", "",
        )

    def test_stats_prints_the_servers_stats_json(self, remote_cache, capsys):
        url, handle, _ = remote_cache
        code, out, err = run(capsys, "cache", "stats", "--cache", url)
        assert (code, err) == (0, "")
        stats = json.loads(out)
        assert out == json.dumps(stats, indent=2, sort_keys=True) + "\n"
        assert set(stats) == {"cache_dir", "draining", "session", "uptime_seconds", "usage"}
        assert stats["cache_dir"] == handle.app.config.cache_dir
        assert stats["usage"]["entries"] == 1

    def test_ls_then_clear(self, remote_cache, capsys):
        url, handle, key = remote_cache
        assert run(capsys, "cache", "ls", "--cache", url) == (0, f"{key}\n", "")
        assert run(capsys, "cache", "clear", "--cache", url) == (0, "removed 1 entries\n", "")
        assert run(capsys, "cache", "ls", "--cache", url) == (0, "", "")
        assert list(handle.app.store.keys()) == []

    @pytest.mark.parametrize("action", ["prune", "doctor"])
    def test_filesystem_actions_are_local_only(self, remote_cache, action, capsys):
        url, handle, _ = remote_cache
        code, out, err = run(capsys, "cache", action, "--cache", url, "--max-bytes", "1")
        assert out == ""
        assert_user_error(
            code, err,
            f"'cache {action}' operates on a local cache directory; run it on "
            f"the host serving {url}",
        )
        assert handle.app.store.usage()["entries"] == 1

    @pytest.mark.parametrize("action", ["stats", "info", "ls", "clear"])
    def test_stats_against_a_closed_port_is_a_user_error(self, action, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code, out, err = run(capsys, "cache", action, "--cache", f"http://127.0.0.1:{port}")
        assert out == ""
        assert_user_error(code, err, f"cache server http://127.0.0.1:{port} unreachable")


class TestCacheServeSpecs:
    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("http://127.0.0.1:9", "'cache serve' fronts a local disk cache"),
            ("disk:/tmp/x,http://127.0.0.1:9", "'cache serve' fronts a local disk cache"),
            ("memory:", "'cache serve' needs a disk cache to front"),
        ],
    )
    def test_serve_needs_a_local_disk_cache(self, spec, fragment, capsys):
        code, out, err = run(capsys, "cache", "serve", "--cache", spec, "--port", "0")
        assert out == ""
        assert_user_error(code, err, fragment)
