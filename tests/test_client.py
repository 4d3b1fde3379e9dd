import base64
import hashlib
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trc_toolkit
from trc_toolkit.client import (
    RETRY_WAIT_CAP,
    CacheEntry,
    EndpointConfig,
    ResponseCache,
    _backoff,
    collect_responses,
    extract_answer,
    prompt_hash,
    request_body,
)
from trc_toolkit.errors import AuthFailure
from trc_toolkit.prompting import (STYLE_KINDS, DemoPool, PromptStyle, render_prompt,
                                   select_demonstrations)
from trc_toolkit.querygen import REFERENCE_KINDS


class MockEndpoint:
    """Scriptable chat-completions endpoint for tests.

    It speaks HTTP/1.1 and keeps connections alive, as hosted APIs do, so a
    client that leaves its connections open leaves handler threads waiting.
    """

    def __init__(self):
        self.requests = 0
        self.prompts = []  # prompt of every request, in arrival order
        self.bodies = []  # raw body of every request, in arrival order
        self.targets = []  # request target of every request, in arrival order
        self.headers = []  # request headers of every request, in arrival order
        self.drop_connections = False  # close the socket after each reply, unannounced
        self.dropped = threading.Event()  # set once a connection was dropped
        self.status_script = []  # statuses to serve before succeeding
        self.retry_after = None  # Retry-After header value sent with a 429
        self.malformed = 0  # number of 200 replies to send without "choices"
        self.delay = 0.0
        self.in_flight = 0
        self.max_in_flight = 0
        self._lock = threading.Lock()
        self.reply = lambda prompt: f"echo: {prompt.splitlines()[0]}"

        mock = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 10  # a leaked client connection cannot hold close() forever

            def log_message(self, *args):
                pass

            def do_POST(self):
                self._done = False
                raw = self.rfile.read(int(self.headers["Content-Length"]))
                prompt = json.loads(raw)["messages"][0]["content"]
                with mock._lock:
                    mock.requests += 1
                    mock.prompts.append(prompt)
                    mock.bodies.append(raw)
                    mock.targets.append(self.path)
                    mock.headers.append(dict(self.headers))
                    mock.in_flight += 1
                    mock.max_in_flight = max(mock.max_in_flight, mock.in_flight)
                    status = mock.status_script.pop(0) if mock.status_script else 200
                    malformed = status == 200 and mock.malformed > 0
                    mock.malformed -= malformed
                try:
                    if mock.delay:
                        time.sleep(mock.delay)
                    if status != 200:
                        self._finish()
                        self.send_response(status)
                        if status == 429 and mock.retry_after is not None:
                            self.send_header("Retry-After", mock.retry_after)
                        self.send_header("Content-Length", "0")
                        self.end_headers()
                        return
                    reply = {} if malformed else {
                        "choices": [{"message": {"content": mock.reply(prompt)}}]}
                    payload = json.dumps(reply).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    # Decrement before the body write unblocks the client, so
                    # in_flight never counts a request the caller already saw
                    # complete.
                    self._finish()
                    self.wfile.write(payload)
                    if mock.drop_connections:
                        self.close_connection = True
                        self.connection.shutdown(socket.SHUT_WR)
                        mock.dropped.set()
                finally:
                    self._finish()

            def do_CONNECT(self):
                with mock._lock:
                    mock.targets.append(self.path)
                    mock.headers.append(dict(self.headers))
                self.send_response(502)  # a proxy that cannot reach the host
                self.send_header("Content-Length", "0")
                self.end_headers()

            def _finish(self):
                with mock._lock:
                    if not getattr(self, "_done", False):
                        self._done = True
                        mock.in_flight -= 1

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       kwargs={"poll_interval": 0.01}, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def endpoint():
    mock = MockEndpoint()
    yield mock
    mock.close()


@pytest.fixture
def cache(tmp_path):
    with ResponseCache(tmp_path / "cache") as cache:
        yield cache


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread that the test's own thread starts from here on.

    The mock's handler threads are started by its server thread, so they
    are left out; they may linger on idle keep-alive sockets. Check them with
    `threading.enumerate()`, not `is_alive()`: on Python 3.11 a join cut short
    by Ctrl-C marks a thread stopped while it still runs.
    """
    caller, started = threading.current_thread(), []
    start = threading.Thread.start

    def recording_start(thread):
        if threading.current_thread() is caller:
            started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def config_for(endpoint, **overrides):
    defaults = dict(base_url=endpoint.url, model_name="test-model",
                    parallelism=2, retry_limit=2, timeout=5.0)
    defaults.update(overrides)
    return EndpointConfig(**defaults)


PROMPTS = [(f"i{k}", "absolute" if k % 2 else "chronological", f"prompt {k}")
           for k in range(6)]


class TestCollectResponses:
    def test_basic_collection(self, endpoint, cache):
        records = collect_responses(PROMPTS, config_for(endpoint), cache)
        assert [r.instance_id for r in records] == [p[0] for p in PROMPTS]
        assert all(r.error is None for r in records)
        assert records[0].raw_completion == "echo: prompt 0"
        assert records[0].answer == "echo: prompt 0"
        assert endpoint.requests == len(PROMPTS)

    def test_warm_cache_makes_no_requests(self, endpoint, cache):
        first = collect_responses(PROMPTS, config_for(endpoint), cache)
        served = endpoint.requests
        second = collect_responses(PROMPTS, config_for(endpoint), cache)
        assert endpoint.requests == served
        assert second == first

    def test_cache_survives_reload(self, endpoint, tmp_path):
        with ResponseCache(tmp_path / "cache") as cache:
            collect_responses(PROMPTS, config_for(endpoint), cache)
        served = endpoint.requests
        with ResponseCache(tmp_path / "cache") as reloaded:
            collect_responses(PROMPTS, config_for(endpoint), reloaded)
        assert endpoint.requests == served

    def test_cache_tolerates_truncated_line(self, endpoint, tmp_path):
        cache_dir = tmp_path / "cache"
        with ResponseCache(cache_dir) as cache:
            collect_responses(PROMPTS, config_for(endpoint), cache)
        shard = next(cache_dir.glob("*.jsonl"))
        with shard.open("a") as fh:
            fh.write('{"prompt_hash": "trunc')
        with ResponseCache(cache_dir) as reloaded:
            assert len(reloaded) == len(cache)

    def test_append_after_truncated_tail_survives_reload(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ResponseCache(cache_dir) as cache:
            cache.put("ab01", {"prompt_hash": "ab01", "raw_completion": "ab01"})
        with (cache_dir / "ab.jsonl").open("a") as fh:
            fh.write('{"prompt_hash": "trunc')
        for key in ("ab02", "ab03"):
            with ResponseCache(cache_dir) as cache:
                cache.put(key, {"prompt_hash": key, "raw_completion": key})
        with ResponseCache(cache_dir) as reloaded:
            assert [reloaded.get(k) for k in ("ab01", "ab02", "ab03")] == \
                [CacheEntry(k, k) for k in ("ab01", "ab02", "ab03")]
            assert len(reloaded) == 3

    def test_repeated_prompt_is_sent_once(self, endpoint, tmp_path):
        rows = [("i0", "absolute", "prompt p"), ("i0", "chronological", "prompt p"),
                ("i1", "absolute", "prompt q")]
        with ResponseCache(tmp_path / "cache") as cache:
            records = collect_responses(rows, config_for(endpoint), cache)
        assert endpoint.requests == 2 and sorted(endpoint.prompts) == ["prompt p", "prompt q"]
        assert [(r.instance_id, r.reference_kind, r.raw_completion, r.error) for r in records] == [
            ("i0", "absolute", "echo: prompt p", None),
            ("i0", "chronological", "echo: prompt p", None),
            ("i1", "absolute", "echo: prompt q", None)]
        assert len((tmp_path / "cache" / "cache.jsonl").read_bytes().splitlines()) == 2

    def test_repeated_prompt_shares_its_error(self, endpoint, cache):
        endpoint.status_script = [500] * 10
        rows = [("i0", "absolute", "prompt p"), ("i0", "chronological", "prompt p")]
        records = collect_responses(rows, config_for(endpoint, retry_limit=1), cache,
                                    sleep=lambda s: None)
        assert endpoint.requests == 2   # one request and its one retry
        assert [r.error for r in records] == ["HTTP 500", "HTTP 500"]

    def test_retries_then_succeeds(self, endpoint, cache):
        endpoint.status_script = [500, 429]
        waits = []
        records = collect_responses(PROMPTS[:1], config_for(endpoint, parallelism=1),
                                    cache, sleep=waits.append)
        assert records[0].error is None
        assert endpoint.requests == 3  # two failures plus the success
        assert len(waits) == 2  # one backoff after each failure

    def test_exhausted_retries_become_error_records(self, endpoint, cache):
        endpoint.status_script = [500] * 10
        waits = []
        records = collect_responses(PROMPTS[:1],
                                    config_for(endpoint, parallelism=1, retry_limit=1),
                                    cache, sleep=waits.append)
        assert records[0].error is not None
        assert records[0].answer == ""
        assert endpoint.requests == 2
        assert len(waits) == 1  # no backoff after the last attempt

    def test_backoff_does_not_hold_a_worker_slot(self, endpoint, cache):
        endpoint.status_script = [503]
        waits = []
        records = collect_responses(PROMPTS, config_for(endpoint, parallelism=1),
                                    cache, sleep=waits.append)
        assert all(r.error is None for r in records)
        # The failed first prompt is retried only after every fresh prompt,
        # and the one wait is for its backoff once nothing else is left.
        assert endpoint.prompts == [p for _, _, p in PROMPTS] + [PROMPTS[0][2]]
        assert len(waits) == 1

    def test_malformed_body_is_retried(self, endpoint, cache):
        endpoint.malformed = 1
        waits = []
        records = collect_responses(PROMPTS[:1], config_for(endpoint, parallelism=1),
                                    cache, sleep=waits.append)
        assert records[0].error is None
        assert records[0].answer == "echo: prompt 0"
        assert endpoint.requests == 2
        assert len(waits) == 1

    def test_malformed_body_error_after_retries(self, endpoint, cache):
        endpoint.malformed = 10
        records = collect_responses(PROMPTS[:1],
                                    config_for(endpoint, parallelism=1, retry_limit=1),
                                    cache, sleep=lambda s: None)
        assert records[0].error == "malformed response body: 'choices'"
        assert endpoint.requests == 2

    def test_null_content_is_retried_and_never_cached(self, endpoint, tmp_path):
        endpoint.reply = lambda prompt: None
        waits = []
        with ResponseCache(tmp_path / "cache") as cache:
            records = collect_responses(PROMPTS[:1],
                                        config_for(endpoint, parallelism=1, retry_limit=1),
                                        cache, sleep=waits.append)
            assert len(cache) == 0
        assert records[0].error == "malformed response body: content is null"
        assert records[0].raw_completion == records[0].answer == ""
        assert endpoint.requests == 2 and len(waits) == 1
        assert not (tmp_path / "cache" / "cache.jsonl").exists()

    @pytest.mark.parametrize("retry_after, low, high", [
        ("30", 29.0, 30.0),  # delta-seconds longer than the backoff wins
        ("0", 0.4, 1.0),  # shorter than the backoff: the backoff wins
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.4, 1.0),  # HTTP-date: backoff
        (None, 0.4, 1.0),  # no header: backoff
        ("86400", RETRY_WAIT_CAP - 1, RETRY_WAIT_CAP),  # a day: the cap wins
    ])
    def test_retry_after_on_429(self, endpoint, cache, retry_after, low, high):
        endpoint.status_script = [429]
        endpoint.retry_after = retry_after
        waits = []
        records = collect_responses(PROMPTS[:1], config_for(endpoint, parallelism=1),
                                    cache, sleep=waits.append)
        assert records[0].error is None
        assert len(waits) == 1
        # The first backoff is 0.5 * (1 + u) s with u in [0, 1).
        assert low < waits[0] <= high

    @pytest.mark.parametrize("attempt", [30, 5000])
    def test_backoff_is_capped(self, attempt):
        assert _backoff(attempt, random.Random(0)) == RETRY_WAIT_CAP

    def test_auth_failure_stops_the_batch(self, endpoint, cache):
        endpoint.status_script = [401]
        # Slow successes: the 401 is seen while the other slot's request runs.
        endpoint.reply = lambda prompt: time.sleep(0.2) or "ok"
        many = [(f"p{k}", "absolute", f"prompt {k}") for k in range(20)]
        with pytest.raises(AuthFailure):
            collect_responses(many, config_for(endpoint, parallelism=2), cache)
        assert endpoint.requests <= 2

    def test_auth_failure_is_fatal(self, endpoint, cache):
        endpoint.status_script = [401]
        with pytest.raises(AuthFailure):
            collect_responses(PROMPTS[:1], config_for(endpoint, parallelism=1), cache)
        assert endpoint.requests == 1  # no retries on auth errors

    def test_failed_put_stops_every_worker(self, endpoint, tmp_path, started_threads):
        class FullDisk(ResponseCache):
            def put(self, key, record):
                # Fail only once both slots' requests have reached the endpoint.
                deadline = time.monotonic() + 5
                while endpoint.requests < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise OSError(28, "No space left on device")

        many = [(f"p{k}", "absolute", f"prompt {k}") for k in range(20)]
        with FullDisk(tmp_path / "cache") as cache:
            with pytest.raises(OSError, match="No space left on device"):
                collect_responses(many, config_for(endpoint, parallelism=2), cache)
        assert endpoint.requests == 2
        assert started_threads and not set(started_threads) & set(threading.enumerate())

    @pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
    def test_interrupt_stops_every_worker(self, endpoint, tmp_path, started_threads):
        endpoint.delay = 0.05

        class CtrlC(ResponseCache):
            def put(self, key, record):
                super().put(key, record)
                if len(self) == 3:  # the calling thread is waiting for the worker
                    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

        many = [(f"p{k}", "absolute", f"prompt {k}") for k in range(40)]
        # a run started in the background with `&` inherits SIGINT ignored
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with CtrlC(tmp_path / "cache") as cache:
                with pytest.raises(KeyboardInterrupt):
                    collect_responses(many, config_for(endpoint, parallelism=1), cache)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert endpoint.requests < len(many)
        assert started_threads and not set(started_threads) & set(threading.enumerate())

    def test_bounded_concurrency(self, endpoint, cache):
        endpoint.delay = 0.05
        many = [(f"p{k}", "absolute", f"prompt {k}") for k in range(10)]
        collect_responses(many, config_for(endpoint, parallelism=2), cache)
        assert endpoint.max_in_flight <= 2

    def test_dropped_keep_alive_connection_is_reopened(self, endpoint, tmp_path):
        endpoint.drop_connections = True

        class AfterDrop(ResponseCache):
            def put(self, key, record):
                # The second prompt is sent only after this put, so the
                # client's connection is already closed from the far end.
                assert endpoint.dropped.wait(5)
                super().put(key, record)

        with AfterDrop(tmp_path / "cache") as cache:
            records = collect_responses(PROMPTS[:2],
                                        config_for(endpoint, parallelism=1, retry_limit=0),
                                        cache, sleep=lambda s: None)
        assert [r.error for r in records] == [None, None]
        assert endpoint.requests == 2

    def test_http_proxy_gets_absolute_form_target(self, endpoint, cache, monkeypatch):
        host, port = endpoint.server.server_address
        for name in ("http_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTP_PROXY", f"http://user:p%40ss@{host}:{port}")
        config = EndpointConfig(base_url="http://example.invalid/v1", model_name="test-model",
                                parallelism=1, retry_limit=0, timeout=5.0)
        records = collect_responses(PROMPTS[:1], config, cache)
        assert records[0].error is None
        assert endpoint.targets == ["http://example.invalid/v1/chat/completions"]
        assert endpoint.headers[0]["Host"] == "example.invalid"
        assert endpoint.headers[0]["Proxy-Authorization"] == \
            "Basic " + base64.b64encode(b"user:p@ss").decode()

    def test_https_proxy_is_asked_for_a_tunnel(self, endpoint, cache, monkeypatch):
        host, port = endpoint.server.server_address
        for name in ("https_proxy", "no_proxy", "NO_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("HTTPS_PROXY", f"http://user:pw@{host}:{port}")
        config = EndpointConfig(base_url="https://example.invalid/v1", model_name="test-model",
                                parallelism=1, retry_limit=0, timeout=5.0)
        records = collect_responses(PROMPTS[:1], config, cache)
        assert records[0].error.startswith("request failed: ")
        assert endpoint.targets == ["example.invalid:443"]
        assert endpoint.headers[0]["Proxy-Authorization"] == \
            "Basic " + base64.b64encode(b"user:pw").decode()

    def test_https_endpoint_speaks_tls(self, endpoint, cache):
        # The plain-HTTP mock cannot complete a TLS handshake.
        config = config_for(endpoint, base_url=endpoint.url.replace("http:", "https:"),
                            parallelism=1, retry_limit=0)
        records = collect_responses(PROMPTS[:1], config, cache)
        assert records[0].error.startswith("request failed: SSLError")
        assert endpoint.requests == 0

    def test_no_proxy_match_bypasses_the_proxy(self, endpoint, cache, monkeypatch):
        proxy = MockEndpoint()
        try:
            for name in ("http_proxy", "no_proxy"):
                monkeypatch.delenv(name, raising=False)
            monkeypatch.setenv("HTTP_PROXY", proxy.url)
            monkeypatch.setenv("NO_PROXY", "example.invalid,127.0.0.1")
            records = collect_responses(PROMPTS[:2], config_for(endpoint), cache)
        finally:
            proxy.close()
        assert [r.error for r in records] == [None, None]
        assert endpoint.targets == ["/chat/completions"] * 2
        assert proxy.requests == 0

    def test_refused_connection_becomes_error_record(self, cache):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))  # bound but not listening: connects are refused
            host, port = sock.getsockname()
            config = EndpointConfig(base_url=f"http://{host}:{port}", model_name="test-model",
                                    parallelism=1, retry_limit=1, timeout=5.0)
            waits = []
            records = collect_responses(PROMPTS[:1], config, cache, sleep=waits.append)
        assert records[0].error.startswith("request failed: ")
        assert len(waits) == 1  # retried once, then recorded

    def test_parallelism_hard_cap(self):
        with pytest.raises(ValueError):
            EndpointConfig(base_url="http://x", model_name="m", parallelism=64)

    @pytest.mark.parametrize("setting, value", [
        ("timeout", 0.0), ("timeout", -1.0), ("timeout", float("nan")),
        ("timeout", float("inf")), ("timeout", 1e10),
        ("max_new_tokens", 0), ("max_new_tokens", -5),
        ("temperature", -0.1), ("temperature", float("nan")), ("temperature", float("inf")),
    ])
    def test_setting_out_of_range_is_refused(self, setting, value):
        with pytest.raises(ValueError, match=setting):
            EndpointConfig(base_url="http://x", model_name="m", **{setting: value})

    def test_settings_at_their_bounds_are_accepted(self, endpoint, cache):
        EndpointConfig(base_url="http://x", model_name="m", temperature=0.0,
                       max_new_tokens=1, timeout=0.001)
        # a socket takes the longest timeout
        config = config_for(endpoint, timeout=threading.TIMEOUT_MAX)
        assert [r.error for r in collect_responses(PROMPTS[:1], config, cache)] == [None]

    def test_generation_settings_split_the_cache(self, endpoint, tmp_path):
        with ResponseCache(tmp_path / "cache") as cache:
            for temperature in (0.0, 0.7, 0.0, 0.7):
                collect_responses(PROMPTS[:1], config_for(endpoint, temperature=temperature),
                                  cache)
        assert endpoint.requests == 2
        assert [json.loads(body)["temperature"] for body in endpoint.bodies] == [0.0, 0.7]
        assert len((tmp_path / "cache" / "cache.jsonl").read_text().splitlines()) == 2


def _snapshot(directory):
    """Every file in `directory`, by name, as its bytes and modification time."""
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in directory.iterdir()}


# Puts numbered records until killed, printing each key once `put` has returned.
_PUT_LOOP = """
import sys
from trc_toolkit.client import ResponseCache
cache = ResponseCache(sys.argv[1])
for i in range(100_000):
    key = f"k{i:05d}"
    cache.put(key, {"prompt_hash": key, "raw_completion": "é" * (i % 97)})
    print(key, flush=True)
"""


class TestResponseCacheFile:
    def test_cold_run_writes_one_file(self, endpoint, tmp_path):
        with ResponseCache(tmp_path / "cache") as cache:
            collect_responses(PROMPTS, config_for(endpoint), cache)
        assert [p.name for p in (tmp_path / "cache").iterdir()] == ["cache.jsonl"]
        lines = (tmp_path / "cache" / "cache.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == len(PROMPTS)

    def test_legacy_shard_is_not_read(self, endpoint, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        key = prompt_hash("test-model", "prompt 0")  # the key the shard would need
        (cache_dir / "ab.jsonl").write_text(json.dumps(
            {"prompt_hash": key, "raw_completion": "old", "latency": 0.5}) + "\n")
        with ResponseCache(cache_dir) as cache:
            assert len(cache) == 0
            [record] = collect_responses(PROMPTS[:1], config_for(endpoint), cache)
        assert (endpoint.requests, record.raw_completion) == (1, "echo: prompt 0")

    def test_warm_collect_touches_nothing(self, endpoint, tmp_path):
        cache_dir = tmp_path / "cache"
        with ResponseCache(cache_dir) as cache:
            collect_responses(PROMPTS, config_for(endpoint), cache)
        before, served = _snapshot(cache_dir), endpoint.requests
        with ResponseCache(cache_dir) as cache:
            collect_responses(PROMPTS, config_for(endpoint), cache)
        assert endpoint.requests == served
        assert _snapshot(cache_dir) == before

    @pytest.mark.parametrize("cut", [1, 5], ids=["newline", "record"])
    def test_put_after_truncated_live_file_is_its_own_line(self, tmp_path, cut):
        cache_dir = tmp_path / "cache"
        with ResponseCache(cache_dir) as cache:
            for key in ("k1", "k2"):
                cache.put(key, {"prompt_hash": key, "raw_completion": key})
        live = cache_dir / "cache.jsonl"
        live.write_bytes(live.read_bytes()[:-cut])  # cut k2's newline, or into k2 itself
        keys = ["k1", "k2", "k3"] if cut == 1 else ["k1", "k3"]
        with ResponseCache(cache_dir) as cache:
            assert len(cache) == len(keys) - 1
            cache.put("k3", {"prompt_hash": "k3", "raw_completion": "k3"})
        with ResponseCache(cache_dir) as reloaded:
            assert [reloaded.get(k) for k in keys] == [CacheEntry(k, k) for k in keys]
            assert len(reloaded) == len(keys)
        assert live.read_text().splitlines()[-1] == '{"prompt_hash": "k3", "raw_completion": "k3"}'

    def test_tail_cut_inside_a_character_is_skipped(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ResponseCache(cache_dir) as cache:
            cache.put("k1", {"prompt_hash": "k1", "raw_completion": "é"})
        live = cache_dir / "cache.jsonl"
        with live.open("ab") as fh:   # a killed run's last row, cut inside "é"
            fh.write('{"prompt_hash": "k2", "raw_completion": "é'.encode("utf-8")[:-1])
        with ResponseCache(cache_dir) as cache:
            assert len(cache) == 1 and cache.get("k1") == CacheEntry("k1", "é")
            cache.put("k3", {"prompt_hash": "k3", "raw_completion": "k3"})
        with ResponseCache(cache_dir) as reloaded:
            assert [reloaded.get(k) for k in ("k1", "k3")] == \
                [CacheEntry("k1", "é"), CacheEntry("k3", "k3")]
            assert len(reloaded) == 2
        assert live.read_bytes().splitlines()[-1] == \
            b'{"prompt_hash": "k3", "raw_completion": "k3"}'

    def test_killed_writer_keeps_every_returned_put(self, tmp_path):
        cache_dir = tmp_path / "cache"
        package_root = str(Path(trc_toolkit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen([sys.executable, "-c", _PUT_LOOP, str(cache_dir)], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        watchdog = threading.Timer(10, proc.kill)
        watchdog.start()
        try:
            printed = []
            while len(printed) < 50:
                line = proc.stdout.readline()
                if not line:
                    break
                printed.append(line.strip())
            proc.kill()
            rest, err = proc.communicate(timeout=10)
        finally:
            watchdog.cancel()
        assert len(printed) >= 50, err
        printed += rest.split()
        with ResponseCache(cache_dir) as reloaded:
            for key in printed:
                i = int(key[1:])
                assert reloaded.get(key) == CacheEntry(key, "é" * (i % 97))
            reloaded.put("after", {"prompt_hash": "after", "raw_completion": ""})
        with ResponseCache(cache_dir) as reloaded:
            assert reloaded.get("after") == CacheEntry("after", "")
            assert all(reloaded.get(key) is not None for key in printed)


class TestPromptHash:
    def test_includes_model_name(self):
        assert prompt_hash("model-a", "p") != prompt_hash("model-b", "p")

    def test_is_the_digest_of_the_bytes_sent(self, endpoint, cache):
        config = config_for(endpoint, temperature=0.3, max_new_tokens=7)
        [record] = collect_responses(PROMPTS[:1], config, cache)
        [body] = endpoint.bodies
        assert hashlib.sha256(body).hexdigest() == record.prompt_hash
        assert record.prompt_hash == prompt_hash("test-model", "prompt 0", 0.3, 7)
        assert json.loads(body)["temperature"] == 0.3 and json.loads(body)["max_tokens"] == 7

    def test_defaults_are_the_endpoint_defaults(self):
        defaults = EndpointConfig(base_url="http://x", model_name="m")
        assert prompt_hash("m", "p") == \
            prompt_hash("m", "p", defaults.temperature, defaults.max_new_tokens)

    def test_deterministic(self):
        assert prompt_hash("m", "p") == prompt_hash("m", "p")

    # Any code point, lone surrogates included (`st.text()` leaves them out).
    ANY_TEXT = st.text(st.characters(exclude_categories=()))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(model=ANY_TEXT, prompt=ANY_TEXT,
           temperature=st.integers(min_value=0) | st.floats(min_value=0, allow_infinity=False),
           max_new_tokens=st.integers(min_value=1))
    # 0 and 0.0 are one key to an untyped cache, but `json.dumps` writes 0 and 0.0
    @example(model="m", prompt="p", temperature=0, max_new_tokens=30)
    @example(model="m", prompt="p", temperature=0.0, max_new_tokens=30)
    @example(model='m", "content": "', prompt='"content": ""', temperature=1, max_new_tokens=1)
    @example(model='"content": ""', prompt='\\"\ud800 \U0001f600 é', temperature=0.7,
             max_new_tokens=2 ** 70)
    def test_body_is_json_dumps_of_the_request(self, model, prompt, temperature,
                                               max_new_tokens):
        assert request_body(model, prompt, temperature, max_new_tokens) == json.dumps({
            "model": model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": max_new_tokens,
        }).encode("utf-8")


def _prompt(kind, instance):
    """A prompt of one style with `instance` as its one demo."""
    return render_prompt("Who?", [instance], PromptStyle(kind, 1), "chronological")


class TestExtractAnswer:
    def test_icl_first_line(self, pelikan_instance):
        assert extract_answer("valparaiso university\n", _prompt("icl", pelikan_instance)) == \
            "valparaiso university"

    def test_cot_last_line_fallback(self, pelikan_instance):
        raw = ("because jaroslav pelikan worked for concordia seminary from "
               "january 1949 to january 1953, and right before january 1949, "
               "jaroslav pelikan worked for valparaiso university.\n"
               "valparaiso university")
        assert extract_answer(raw, _prompt("semantic-cot", pelikan_instance)) == \
            "valparaiso university"

    def test_cot_answer_marker(self, pelikan_instance):
        raw = "reasoning goes here\nAnswer: fc ingolstadt 04\ntrailing note"
        assert extract_answer(raw, _prompt("semantic-cot", pelikan_instance)) == \
            "fc ingolstadt 04"

    def test_empty(self, pelikan_instance):
        assert extract_answer("", _prompt("icl", pelikan_instance)) == ""

    @pytest.mark.parametrize("kind", STYLE_KINDS)
    @pytest.mark.parametrize("shots", [0, 3])
    def test_a_leading_label_is_dropped_under_every_style(self, synthetic_dataset, kind, shots):
        target = synthetic_dataset[0]
        query = target.query("absolute")
        style = PromptStyle(kind, shots)
        demos = select_demonstrations(DemoPool(synthetic_dataset).without(target.id), query,
                                      style, 0, reference_kind="absolute")
        prompt = render_prompt(query, demos, style, "absolute")
        for raw in ("Answer: Real Madrid", "answer：Real Madrid\nmore", "ANSWER : Real Madrid",
                    "Answer:\nReal Madrid"):
            assert extract_answer(raw, prompt) == "Real Madrid", raw

    @pytest.mark.parametrize("kind", STYLE_KINDS)
    @pytest.mark.parametrize("reference", REFERENCE_KINDS)
    def test_the_rule_follows_the_rendered_style(self, synthetic_dataset, kind, reference):
        """Only a semantic-cot prompt with demos is read after `Answer:`."""
        pool = DemoPool(synthetic_dataset)
        raw = "because of a reasoning line\nAnswer: the answer"
        for shots in (0, 1, 3):
            style = PromptStyle(kind, shots)
            cot = kind == "semantic-cot" and shots > 0
            for inst in synthetic_dataset:
                query = inst.query(reference)
                demos = select_demonstrations(pool.without(inst.id), query, style, 0,
                                              reference_kind=reference)
                prompt = render_prompt(query, demos, style, reference)
                assert extract_answer(raw, prompt) == \
                    ("the answer" if cot else "because of a reasoning line"), (shots, inst.id)
