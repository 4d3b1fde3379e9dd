import base64
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from trc_toolkit.client import (
    EndpointConfig,
    ResponseCache,
    collect_responses,
    extract_answer,
    prompt_hash,
)
from trc_toolkit.errors import AuthFailure
from trc_toolkit.prompting import PromptStyle


class MockEndpoint:
    """Scriptable chat-completions endpoint for tests.

    It speaks HTTP/1.1 and keeps connections alive, as hosted APIs do, so a
    client that leaves its connections open leaves handler threads waiting.
    """

    def __init__(self):
        self.requests = 0
        self.prompts = []  # prompt of every request, in arrival order
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
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                prompt = body["messages"][0]["content"]
                with mock._lock:
                    mock.requests += 1
                    mock.prompts.append(prompt)
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
            cache.put("ab01", {"prompt_hash": "ab01"})
        with (cache_dir / "ab.jsonl").open("a") as fh:
            fh.write('{"prompt_hash": "trunc')
        for key in ("ab02", "ab03"):
            with ResponseCache(cache_dir) as cache:
                cache.put(key, {"prompt_hash": key})
        with ResponseCache(cache_dir) as reloaded:
            assert [reloaded.get(k) for k in ("ab01", "ab02", "ab03")] == \
                [{"prompt_hash": k} for k in ("ab01", "ab02", "ab03")]
            assert len(reloaded) == 3

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

    @pytest.mark.parametrize("retry_after, low, high", [
        ("30", 29.0, 30.0),  # delta-seconds longer than the backoff wins
        ("0", 0.4, 1.0),  # shorter than the backoff: the backoff wins
        ("Wed, 21 Oct 2015 07:28:00 GMT", 0.4, 1.0),  # HTTP-date: backoff
        (None, 0.4, 1.0),  # no header: backoff
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


class TestPromptHash:
    def test_includes_model_name(self):
        assert prompt_hash("model-a", "p") != prompt_hash("model-b", "p")

    def test_deterministic(self):
        assert prompt_hash("m", "p") == prompt_hash("m", "p")


class TestExtractAnswer:
    def test_icl_first_line(self):
        assert extract_answer("valparaiso university\n", PromptStyle("icl")) == \
            "valparaiso university"

    def test_cot_last_line_fallback(self):
        raw = ("because jaroslav pelikan worked for concordia seminary from "
               "january 1949 to january 1953, and right before january 1949, "
               "jaroslav pelikan worked for valparaiso university.\n"
               "valparaiso university")
        assert extract_answer(raw, PromptStyle("semantic_cot")) == "valparaiso university"

    def test_cot_answer_marker(self):
        raw = "reasoning goes here\nAnswer: fc ingolstadt 04\ntrailing note"
        assert extract_answer(raw, PromptStyle("semantic_cot")) == "fc ingolstadt 04"

    def test_empty(self):
        assert extract_answer("", PromptStyle("icl")) == ""
