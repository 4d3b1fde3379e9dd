"""Chat-completions endpoint client with an append-only response cache.

Requests POST to {base_url}/chat/completions with the usual body
(model/messages/temperature/max_tokens); the API key comes from the
TRC_API_KEY environment variable.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import random
import re
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import requests

from .errors import AuthFailure
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


@dataclass(frozen=True)
class CompletionRecord:
    instance_id: str
    reference_kind: str
    prompt_hash: str
    raw_completion: str
    answer: str
    model_name: str
    latency: float
    error: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "reference_kind": self.reference_kind,
            "prompt_hash": self.prompt_hash,
            "raw_completion": self.raw_completion,
            "answer": self.answer,
            "model_name": self.model_name,
            "latency": self.latency,
            "error": self.error,
        }


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

    Writes are append-only and serialized through one lock, so a killed run
    leaves at worst a truncated final line, which loading skips. The first
    write to such a shard ends the fragment with a newline, so the record
    written after it stays a line of its own.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self._unterminated: set[Path] = set()
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
        with self._lock:
            self._entries[key] = record
            lead = "\n" if shard in self._unterminated else ""
            with shard.open("a", encoding="utf-8") as fh:
                fh.write(lead + json.dumps(record, ensure_ascii=False) + "\n")
            self._unterminated.discard(shard)

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


def _request_completion(prompt: str, config: EndpointConfig,
                        session: requests.Session) -> _Attempt:
    url = config.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = {
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "max_tokens": config.max_new_tokens,
    }
    started = time.monotonic()
    try:
        resp = session.post(url, json=body, headers=headers, timeout=config.timeout)
    except requests.RequestException as exc:
        return _Attempt(error=f"request failed: {exc}")
    if resp.status_code in (401, 403):
        raise AuthFailure(f"endpoint returned {resp.status_code}")
    if resp.status_code != 200:
        retry_after = _retry_after(resp.headers.get("Retry-After")) \
            if resp.status_code == 429 else 0.0
        return _Attempt(error=f"HTTP {resp.status_code}", retry_after=retry_after)
    try:
        content = resp.json()["choices"][0]["message"]["content"]
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
        session = requests.Session()
        fresh = deque(pending)
        retries: list[tuple[float, int]] = []  # heap of (deadline, index)
        tries: dict[int, int] = {}  # failed attempts so far, per index
        rngs: dict[int, random.Random] = {}
        running: dict[Future, int] = {}
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            def submit(index: int):
                running[pool.submit(_request_completion, prompts[index][2],
                                    config, session)] = index

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
