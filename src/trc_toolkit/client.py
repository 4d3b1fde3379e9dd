"""Chat-completions endpoint client with an append-only response cache.

Requests POST to {base_url}/chat/completions with the usual body
(model/messages/temperature/max_tokens); the API key comes from the
TRC_API_KEY environment variable.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
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
    leaves at worst a truncated final line, which loading skips.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._entries: dict[str, dict] = {}
        self._load()

    def _shard(self, key: str) -> Path:
        return self.directory / f"{key[:2]}.jsonl"

    def _load(self):
        for shard in sorted(self.directory.glob("*.jsonl")):
            with shard.open("r", encoding="utf-8") as fh:
                for line in fh:
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
        with self._lock:
            self._entries[key] = record
            with self._shard(key).open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")

    def __len__(self) -> int:
        return len(self._entries)


@dataclass
class _Attempt:
    raw: str = ""
    latency: float = 0.0
    retries: int = 0
    error: Optional[str] = None


def _backoff(attempt: int, rng: random.Random, base: float = 0.5) -> float:
    return base * (2 ** attempt) * (1 + rng.random())


def _request_completion(prompt: str, config: EndpointConfig,
                        session: requests.Session, rng: random.Random,
                        sleep=time.sleep) -> _Attempt:
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
    last_error = "no attempt made"
    for attempt in range(config.retry_limit + 1):
        started = time.monotonic()
        try:
            resp = session.post(url, json=body, headers=headers, timeout=config.timeout)
        except requests.RequestException as exc:
            last_error = f"request failed: {exc}"
        else:
            if resp.status_code in (401, 403):
                raise AuthFailure(f"endpoint returned {resp.status_code}")
            if resp.status_code == 200:
                try:
                    content = resp.json()["choices"][0]["message"]["content"]
                except (ValueError, KeyError, IndexError) as exc:
                    return _Attempt(error=f"malformed response body: {exc}",
                                    retries=attempt)
                return _Attempt(raw=content, latency=time.monotonic() - started,
                                retries=attempt)
            last_error = f"HTTP {resp.status_code}"
        if attempt < config.retry_limit:
            sleep(_backoff(attempt, rng))
    return _Attempt(error=last_error, retries=config.retry_limit)


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
    order matches input order. `sleep` waits out each retry backoff.
    """
    keys = [prompt_hash(config.model_name, p) for _, _, p in prompts]
    pending = [i for i, key in enumerate(keys) if cache.get(key) is None]
    errors: dict[int, str] = {}

    session = requests.Session()

    def fetch(index: int) -> tuple[int, _Attempt]:
        rng = random.Random(f"{seed}:{index}")
        return index, _request_completion(prompts[index][2], config, session, rng, sleep)

    if pending:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            for index, attempt in pool.map(fetch, pending):
                if attempt.error is None:
                    cache.put(keys[index], {
                        "prompt_hash": keys[index],
                        "raw_completion": attempt.raw,
                        "latency": attempt.latency,
                        "model_name": config.model_name,
                    })
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
