"""Chat-completions endpoint client with an append-only response cache.

Requests POST to {base_url}/chat/completions with the usual body
(model/messages/temperature/max_tokens); the API key comes from the
TRC_API_KEY environment variable. `collect_responses` runs one loop per
worker thread, and each worker owns one keep-alive connection. Sockets,
proxies and TLS live in `transport`, which loads only when a prompt misses
the cache.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import random
import threading
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Sequence, TextIO
from urllib.parse import urlsplit

from .manifest import JsonRecord, encode_json, read_jsonl
from .prompting import extract_answer

PARALLELISM_CAP = 16
API_KEY_ENV = "TRC_API_KEY"
RETRY_WAIT_CAP = 60.0  # seconds: the longest wait before a retry, whatever the server asks


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
        if not 0 <= self.temperature < math.inf:  # NaN fails both comparisons
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_new_tokens < 1:
            raise ValueError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be > 0 seconds, got {self.timeout}")
        if self.timeout > threading.TIMEOUT_MAX:  # more than a socket accepts
            raise ValueError(f"timeout must be <= {threading.TIMEOUT_MAX} s, got {self.timeout}")
        if not 1 <= self.parallelism <= PARALLELISM_CAP:
            raise ValueError(f"parallelism must be in [1, {PARALLELISM_CAP}]")
        if self.retry_limit < 0:
            raise ValueError("retry_limit must be >= 0")
        url = urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be an http:// or https:// URL, got {self.base_url!r}")


@dataclass
class CompletionRecord(JsonRecord):
    instance_id: str
    reference_kind: str
    prompt_hash: str
    raw_completion: str
    answer: str
    model_name: str
    latency: float
    error: Optional[str] = None


@dataclass
class CacheEntry(JsonRecord):
    """The fields of a cache row that the toolkit reads; other keys are ignored."""
    prompt_hash: str
    raw_completion: str
    latency: float = 0.0


@lru_cache(maxsize=16, typed=True)  # typed: 0 and 0.0 are equal keys but dump as 0 and 0.0
def _body_frame(model_name: str, temperature: float, max_new_tokens: int) -> tuple[str, str]:
    """The request body's text before and after the prompt, split at its empty
    content: the last `""` of the dump, since only numbers and brackets follow it."""
    head, _, tail = json.dumps({
        "model": model_name,
        "messages": [{"role": "user", "content": ""}],
        "temperature": temperature,
        "max_tokens": max_new_tokens,
    }).rpartition('""')
    return head, tail


def request_body(model_name: str, prompt: str, temperature: float,
                 max_new_tokens: int) -> bytes:
    """The JSON body POSTed for one prompt: `json.dumps` of the request, byte for
    byte, with the prompt escaped as `json.dumps` escapes it (ASCII only)."""
    head, tail = _body_frame(model_name, temperature, max_new_tokens)
    return (head + encode_basestring_ascii(prompt) + tail).encode("utf-8")


def prompt_hash(model_name: str, prompt: str,
                temperature: float = EndpointConfig.temperature,
                max_new_tokens: int = EndpointConfig.max_new_tokens) -> str:
    """The cache key of a prompt: the sha256 of its request body, so two
    requests that differ in any generation setting never share an entry."""
    return hashlib.sha256(request_body(model_name, prompt, temperature,
                                       max_new_tokens)).hexdigest()


class ResponseCache:
    """Directory of `CacheEntry` rows; new ones are appended to `cache.jsonl`.

    Writes are serialized through one lock. The file is opened on the first
    `put` and held until `close()`. Each record is one write and a flush, so a
    killed process leaves at worst a truncated final line, which loading
    skips, and the next write ends that fragment with a newline first. The
    flush does not reach the disk, so a power loss is not covered. A row that
    decodes but breaks the record rule raises `MalformedRecord`.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._path = self.directory / "cache.jsonl"
        self._lock = threading.Lock()
        self._entries: dict[str, CacheEntry] = {}
        self._unterminated = False
        self._handle: Optional[TextIO] = None
        self._load()

    def _load(self):
        if not self._path.exists():
            return
        # A line that does not decode is a tail cut short by a killed run.
        for entry in read_jsonl(self._path, CacheEntry, skip_undecodable=True):
            self._entries[entry.prompt_hash] = entry
        if self._path.stat().st_size:
            with self._path.open("rb") as fh:
                fh.seek(-1, os.SEEK_END)
                self._unterminated = fh.read(1) != b"\n"

    def get(self, key: str) -> Optional[CacheEntry]:
        return self._entries.get(key)

    def put(self, key: str, record: dict):
        entry = CacheEntry.from_dict(record)  # checked before it is written as given
        line = encode_json(record) + "\n"
        with self._lock:
            self._entries[key] = entry
            if self._handle is None:
                self._handle = self._path.open("a", encoding="utf-8")
            if self._unterminated:
                line = "\n" + line
                self._unterminated = False
            self._handle.write(line)
            self._handle.flush()

    def close(self):
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "ResponseCache":
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __len__(self) -> int:
        return len(self._entries)


def _backoff(attempt: int, rng: random.Random) -> float:
    """0.5 s, doubled per earlier failed attempt up to 2^64, times a jitter in [1, 2); capped."""
    return min(0.5 * 2.0 ** min(attempt, 64) * (1 + rng.random()), RETRY_WAIT_CAP)


def collect_responses(prompts: Sequence[tuple[str, str, str]],
                      config: EndpointConfig,
                      cache: ResponseCache,
                      seed: int = 0, *,
                      sleep=time.sleep) -> list[CompletionRecord]:
    """Fetch one completion per (instance_id, reference_kind, prompt).

    A row's cache key is `prompt_hash` at the config's model and generation
    settings; only the keys are kept, and a body is built again to be sent.
    Cache hits skip the network entirely. Rows that repeat a prompt share one
    request, sent for the first of them, and its completion or error. Failures
    that outlive the retry budget become error-marked records instead of
    aborting the batch. Output order matches input order. Up to
    `config.parallelism` threads, each with its own connection, loop: send a
    due retry, else a fresh prompt, else wait out the earliest backoff through
    `sleep` (so `sleep` may run on a worker thread) and send that retry, else
    stop. The first exception in a worker (AuthFailure, or one from
    `cache.put`) or in the wait for them (Ctrl-C) is raised once all have
    stopped: 401/403 stops the run after the requests already in flight and
    any backoff a worker is already waiting out.
    """
    settings = (config.temperature, config.max_new_tokens)
    keys = [prompt_hash(config.model_name, p, *settings) for _, _, p in prompts]
    first: dict[str, int] = {}  # each key's first row
    for index, key in enumerate(keys):
        first.setdefault(key, index)
    fresh = deque(index for key, index in first.items() if cache.get(key) is None)
    errors: dict[str, str] = {}  # key -> the error of its last attempt

    if fresh:
        # Imported here, so that a run of cache hits never loads the HTTP and TLS stack.
        from .transport import Transport, request_completion
        transport = Transport(config.base_url, config.timeout)
        retries: list[tuple[float, int]] = []  # heap of (deadline, index)
        tries: dict[int, int] = {}  # failed attempts so far, per index
        rngs: dict[int, random.Random] = {}
        failures: list[BaseException] = []  # the first one is raised
        live = min(config.parallelism, len(fresh))  # workers not yet stopped
        lock = threading.Condition()  # guards all of the above, and `fresh`

        def work():
            nonlocal live
            try:
                with closing(transport.open()) as conn:
                    while True:
                        with lock:
                            if failures or not (fresh or retries):
                                return
                            if retries and (retries[0][0] <= time.monotonic() or not fresh):
                                deadline, index = heapq.heappop(retries)
                            else:
                                deadline, index = 0.0, fresh.popleft()
                        wait = deadline - time.monotonic()
                        if wait > 0:  # nothing else to send before this retry is due
                            sleep(wait)
                            if failures:
                                return
                        body = request_body(config.model_name, prompts[index][2], *settings)
                        attempt = request_completion(body, transport, conn)
                        if attempt.error is None:
                            cache.put(keys[index], {
                                "prompt_hash": keys[index], "raw_completion": attempt.raw,
                                "latency": attempt.latency, "model_name": config.model_name})
                            continue
                        with lock:
                            failed = tries.get(index, 0)
                            if failed < config.retry_limit:
                                if not failed:
                                    rngs[index] = random.Random(f"{seed}:{index}")
                                delay = max(_backoff(failed, rngs[index]), attempt.retry_after)
                                heapq.heappush(retries, (time.monotonic() + delay, index))
                                tries[index] = failed + 1
                            else:
                                errors[keys[index]] = attempt.error
            except BaseException as exc:
                failures.append(exc)
            finally:
                with lock:
                    live -= 1
                    lock.notify()

        workers = [threading.Thread(target=work, name=f"collect-{k}") for k in range(live)]
        for worker in workers:
            worker.start()
        # Not `Thread.join`: on Python 3.11 a join cut short by Ctrl-C marks
        # the thread stopped, and joining it again returns at once.
        with lock:
            try:
                lock.wait_for(lambda: not live)
            except BaseException as exc:  # Ctrl-C: let the requests in flight finish
                failures.append(exc)
                lock.wait_for(lambda: not live)
        for worker in workers:  # each one has left `work` already
            worker.join()
        if failures:
            raise failures[0]

    records = []
    for (instance_id, reference_kind, prompt), key in zip(prompts, keys):
        cached = cache.get(key)
        if cached is None:  # a fresh key that ran out of retries
            raw, latency, error = "", 0.0, errors[key]
        else:
            raw, latency, error = cached.raw_completion, cached.latency, None
        records.append(CompletionRecord(
            instance_id=instance_id, reference_kind=reference_kind, prompt_hash=key,
            raw_completion=raw, answer=extract_answer(raw, prompt),
            model_name=config.model_name, latency=latency, error=error))
    return records
