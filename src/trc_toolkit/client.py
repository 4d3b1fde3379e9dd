"""Chat-completions endpoint client with an append-only response cache.

Requests POST to {base_url}/chat/completions with the usual body
(model/messages/temperature/max_tokens); the API key comes from the
TRC_API_KEY environment variable. Each worker thread keeps one keep-alive
connection for the length of a `collect_responses` call.
"""

from __future__ import annotations

import base64
import hashlib
import heapq
import http.client
import json
import os
import random
import re
import select
import ssl
import threading
import time
import urllib.request
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, TextIO
from urllib.parse import unquote, urlsplit

from .errors import AuthFailure
from .manifest import JsonRecord
from .prompting import PromptStyle

PARALLELISM_CAP = 16
API_KEY_ENV = "TRC_API_KEY"

DEFAULT_ANSWER_MARKER = r"(?i)\banswer\s*[:：]"


@dataclass(frozen=True)
class EndpointConfig:
    base_url: str
    model_name: str
    temperature: float = 0.0
    max_new_tokens: int = 30
    parallelism: int = 4
    retry_limit: int = 3
    timeout: float = 60.0

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 1 <= self.parallelism <= PARALLELISM_CAP:
            raise ValueError(f"parallelism must be in [1, {PARALLELISM_CAP}]")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL, got {self.base_url!r}")


@dataclass(frozen=True)
class CompletionRecord(JsonRecord):
    instance_id: str
    reference_kind: str
    prompt_hash: str
    raw_completion: str
    answer: str
    model_name: str
    latency: float
    error: Optional[str] = None


def prompt_hash(model_name: str, prompt: str) -> str:
    return hashlib.sha256(f"{model_name}\x00{prompt}".encode("utf-8")).hexdigest()


def extract_answer(raw_completion: str, style: PromptStyle,
                   marker: str = DEFAULT_ANSWER_MARKER) -> str:
    """Rule-based answer extraction; unextractable completions yield ""."""
    lines = [line.strip() for line in raw_completion.splitlines() if line.strip()]
    if not lines:
        return ""
    if style.kind != "semantic_cot":
        return lines[0]
    matches = list(re.finditer(marker, raw_completion))
    if matches:
        tail = raw_completion[matches[-1].end():].strip()
        if tail:
            return tail.splitlines()[0].strip()
    return lines[-1]


class ResponseCache:
    """Directory of JSONL shards keyed by prompt-hash prefix.

    Writes are append-only and serialized through one lock. Each shard stays
    open for appending until `close()`, and each record goes out as one write
    and a flush, so a killed run leaves at worst a truncated final line, which
    loading skips. The first write to such a shard ends the fragment with a
    newline, so the record written after it stays a line of its own.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self._unterminated: set[Path] = set()
        self._handles: dict[Path, TextIO] = {}
        self._load()

    def _shard(self, key: str) -> Path:
        return self.directory / f"{key[:2]}.jsonl"

    def _load(self):
        for shard in sorted(self.directory.glob("*.jsonl")):
            with shard.open("r", encoding="utf-8") as fh:
                for line in fh:
                    if not line.endswith("\n"):  # a tail cut short by a killed run
                        self._unterminated.add(shard)
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        continue  # truncated tail from a killed run
                    self._entries[record["prompt_hash"]] = record

    def get(self, key: str) -> Optional[dict]:
        return self._entries.get(key)

    def put(self, key: str, record: dict):
        shard = self._shard(key)
        line = json.dumps(record, ensure_ascii=False) + "\n"
        with self._lock:
            self._entries[key] = record
            fh = self._handles.get(shard)
            if fh is None:
                fh = self._handles[shard] = shard.open("a", encoding="utf-8")
            if shard in self._unterminated:
                line = "\n" + line
                self._unterminated.discard(shard)
            fh.write(line)
            fh.flush()

    def close(self):
        with self._lock:
            for fh in self._handles.values():
                fh.close()
            self._handles.clear()

    def __enter__(self) -> "ResponseCache":
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class _Attempt:
    """One POST. Every failure except an auth failure (raised) may be retried."""
    raw: str = ""
    latency: float = 0.0
    error: Optional[str] = None
    retry_after: float = 0.0  # the server's delta-seconds Retry-After on a 429


def _backoff(attempt: int, rng: random.Random, base: float = 0.5) -> float:
    return base * (2 ** attempt) * (1 + rng.random())


def _retry_after(value: Optional[str]) -> float:
    """Delta-seconds of a Retry-After header (RFC 9110 §10.2.3); 0 otherwise.

    An HTTP-date value is not honoured: the client's own backoff applies.
    """
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


class _Transport:
    """Keep-alive connections to one endpoint, one per worker thread.

    The endpoint is reached through the proxy that the environment names for
    its scheme (HTTP_PROXY, HTTPS_PROXY) unless NO_PROXY matches its host:
    an http:// URL as an absolute-form request to the proxy, an https:// URL
    through a CONNECT tunnel. TLS uses `ssl.create_default_context()`.
    Every connection is closed by `close()`.
    """

    def __init__(self, base_url: str, timeout: float):
        url = urlsplit(base_url.rstrip("/") + "/chat/completions")
        self.host = url.hostname
        self.port = url.port or (443 if url.scheme == "https" else 80)
        self.target = url.path
        self.headers = {"Content-Type": "application/json"}
        self._timeout = timeout
        self._context = ssl.create_default_context() if url.scheme == "https" else None
        self._proxy = None
        self._tunnel_headers: dict[str, str] = {}
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc):
            proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            self._proxy = (proxy.hostname, proxy.port or 80)
            auth = {}
            if proxy.username:
                credentials = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
                token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                auth["Proxy-Authorization"] = f"Basic {token}"
            if self._context:
                self._tunnel_headers = auth
            else:
                self.target = f"http://{url.netloc}{self.target}"
                self.headers.update(auth)
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []

    def _open(self) -> http.client.HTTPConnection:
        host, port = self._proxy or (self.host, self.port)
        if self._context is None:
            return http.client.HTTPConnection(host, port, timeout=self._timeout)
        conn = http.client.HTTPSConnection(host, port, timeout=self._timeout,
                                           context=self._context)
        if self._proxy:
            conn.set_tunnel(self.host, self.port, headers=self._tunnel_headers)
        return conn

    def connection(self) -> http.client.HTTPConnection:
        """This thread's connection, closed first if the server dropped it.

        An idle keep-alive socket that polls readable has either been closed
        by the server or holds bytes nobody asked for; either way it is not
        reused, and the next request opens a fresh one.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = self._open()
            self._connections.append(conn)
        elif conn.sock is not None and _readable(conn.sock):
            conn.close()
        return conn

    def close(self):
        for conn in self._connections:
            conn.close()


def _readable(sock) -> bool:
    """Whether a read from `sock` would return at once."""
    if not hasattr(select, "poll"):  # Windows, where select() takes any socket
        return bool(select.select([sock], [], [], 0)[0])
    poller = select.poll()  # unlike select(), not limited to descriptors below 1024
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


def _request_completion(prompt: str, config: EndpointConfig,
                        transport: _Transport) -> _Attempt:
    headers = dict(transport.headers)
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = json.dumps({
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "max_tokens": config.max_new_tokens,
    }).encode("utf-8")
    started = time.monotonic()
    conn = transport.connection()
    try:
        conn.request("POST", transport.target, body, headers)
        resp = conn.getresponse()
        payload = resp.read()
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        return _Attempt(error=f"request failed: {type(exc).__name__}: {exc}")
    if resp.status in (401, 403):
        raise AuthFailure(f"endpoint returned {resp.status}")
    if resp.status != 200:
        retry_after = _retry_after(resp.getheader("Retry-After")) \
            if resp.status == 429 else 0.0
        return _Attempt(error=f"HTTP {resp.status}", retry_after=retry_after)
    try:
        content = json.loads(payload)["choices"][0]["message"]["content"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return _Attempt(error=f"malformed response body: {exc}")
    return _Attempt(raw=content, latency=time.monotonic() - started)


def collect_responses(prompts: Sequence[tuple[str, str, str]],
                      config: EndpointConfig,
                      cache: ResponseCache,
                      style: PromptStyle = PromptStyle("icl"),
                      marker: str = DEFAULT_ANSWER_MARKER,
                      seed: int = 0, *,
                      sleep=time.sleep) -> list[CompletionRecord]:
    """Fetch one completion per (instance_id, reference_kind, prompt).

    Cache hits skip the network entirely; failures that outlive the retry
    budget become error-marked records instead of aborting the batch. Output
    order matches input order. A failed prompt waits out its backoff on a
    deadline queue while the worker slots serve other prompts; `sleep` is
    called only when nothing else is left to run before the next retry is due.
    """
    keys = [prompt_hash(config.model_name, p) for _, _, p in prompts]
    pending = [i for i, key in enumerate(keys) if cache.get(key) is None]
    errors: dict[int, str] = {}

    if pending:
        fresh = deque(pending)
        retries: list[tuple[float, int]] = []  # heap of (deadline, index)
        tries: dict[int, int] = {}  # failed attempts so far, per index
        rngs: dict[int, random.Random] = {}
        running: dict[Future, int] = {}
        # The pool exits first: its threads are done before their connections close.
        with closing(_Transport(config.base_url, config.timeout)) as transport, \
                ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            def submit(index: int):
                running[pool.submit(_request_completion, prompts[index][2],
                                    config, transport)] = index

            while fresh or retries or running:
                while len(running) < config.parallelism:
                    if retries and retries[0][0] <= time.monotonic():
                        submit(heapq.heappop(retries)[1])
                    elif fresh:
                        submit(fresh.popleft())
                    else:
                        break
                if not running:  # only retries are left and none is due yet
                    deadline, index = heapq.heappop(retries)
                    sleep(max(0.0, deadline - time.monotonic()))
                    submit(index)
                timeout = None
                if retries and len(running) < config.parallelism:
                    timeout = max(0.0, retries[0][0] - time.monotonic())
                done, _ = wait(running, timeout=timeout, return_when=FIRST_COMPLETED)
                for future in done:
                    index = running.pop(future)
                    attempt = future.result()
                    if attempt.error is None:
                        cache.put(keys[index], {
                            "prompt_hash": keys[index],
                            "raw_completion": attempt.raw,
                            "latency": attempt.latency,
                            "model_name": config.model_name,
                        })
                        continue
                    failed = tries.get(index, 0)
                    if failed < config.retry_limit:
                        if not failed:
                            rngs[index] = random.Random(f"{seed}:{index}")
                        delay = max(_backoff(failed, rngs[index]), attempt.retry_after)
                        heapq.heappush(retries, (time.monotonic() + delay, index))
                        tries[index] = failed + 1
                    else:
                        errors[index] = attempt.error

    records = []
    for index, ((instance_id, reference_kind, _prompt), key) in enumerate(zip(prompts, keys)):
        cached = cache.get(key)
        if cached is not None:
            raw = cached["raw_completion"]
            records.append(CompletionRecord(
                instance_id=instance_id,
                reference_kind=reference_kind,
                prompt_hash=key,
                raw_completion=raw,
                answer=extract_answer(raw, style, marker),
                model_name=config.model_name,
                latency=cached.get("latency", 0.0),
            ))
        else:
            records.append(CompletionRecord(
                instance_id=instance_id,
                reference_kind=reference_kind,
                prompt_hash=key,
                raw_completion="",
                answer="",
                model_name=config.model_name,
                latency=0.0,
                error=errors.get(index, "retry budget exhausted"),
            ))
    return records
