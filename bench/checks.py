"""Output checks: digests that must repeat, and references the outputs must equal."""

from __future__ import annotations

import hashlib
import json
import math
import re
import string
from collections import Counter
from pathlib import Path

from answers import ARMS, AnswerRule, first_line

_PUNCT = set(string.punctuation)
_ARTICLES = {"a", "an", "the"}
_NON_WORD = re.compile(r"[^\w\s]")


def read_rows(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def output_digests(directory: Path) -> dict[str, str]:
    """sha256 of every output file of one iteration.

    `responses.jsonl` is digested without its wall-clock `latency` field, and
    manifests without their `timestamp` and with that file's raw digest, if
    they list it as an input, replaced by its name. The response cache is
    left out.
    """
    responses = directory / "responses.jsonl"
    raw_responses = (hashlib.sha256(responses.read_bytes()).hexdigest()
                     if responses.exists() else None)
    digests = {}
    for path in sorted(directory.rglob("*")):
        rel = path.relative_to(directory)
        if not path.is_file() or rel.parts[0] == "cache":
            continue
        data = path.read_bytes()
        if path.name == "responses.jsonl":
            rows = read_rows(path)
            for row in rows:
                row.pop("latency", None)
            data = json.dumps(rows).encode("utf-8")
        elif path.name.endswith(".manifest.json"):
            manifest = json.loads(data)
            manifest.pop("timestamp", None)
            manifest["input_digests"] = [responses.name if d == raw_responses else d
                                         for d in manifest["input_digests"]]
            data = json.dumps(manifest, sort_keys=True).encode("utf-8")
        digests[str(rel)] = hashlib.sha256(data).hexdigest()
    return digests


# -- reference scoring: an implementation of the paper's metrics kept apart
# from trc_toolkit.metrics, so a change there that alters a score shows.

def _normalize(text: str) -> list[str]:
    cleaned = "".join(" " if ch in _PUNCT else ch for ch in text.lower())
    return [t for t in cleaned.split() if t not in _ARTICLES]


def _f1(pred: list[str], gold: list[str]) -> float:
    if not pred and not gold:
        return 1.0
    common = sum((Counter(pred) & Counter(gold)).values())
    if not pred or not gold or not common:
        return 0.0
    precision, recall = common / len(pred), common / len(gold)
    return 2 * precision * recall / (precision + recall)


def _pct(x: float) -> float:
    return round(x, 2)


def reference_eval(dataset: list[dict], answers: dict[str, tuple[str, str]]) -> dict:
    """The eval.json document for `answers` (id -> (absolute, chronological))."""
    rows = []
    for inst in dataset:
        gold = _normalize(inst["answer"])
        a, c = (_normalize(x) for x in answers[inst["id"]])
        rows.append({"inst": inst, "em_a": int(a == gold), "em_c": int(c == gold),
                     "f1_a": _f1(a, gold), "f1_c": _f1(c, gold),
                     "same": a == c, "same_correct": int(a == c and a == gold)})

    def mean(key, group):
        return _pct(100 * sum(r[key] for r in group) / len(group))

    def breakdown(field):
        groups: dict[str, list] = {}
        for r in rows:
            groups.setdefault(r["inst"][field], []).append(r)
        return {name: [mean("same", g), mean("same_correct", g), len(g)]
                for name, g in groups.items()}

    em_ctr, em_atr = mean("em_c", rows), mean("em_a", rows)
    f1_ctr, f1_atr = mean("f1_c", rows), mean("f1_a", rows)
    return {
        "em_ctr": em_ctr, "em_atr": em_atr, "f1_ctr": f1_ctr, "f1_atr": f1_atr,
        "dev_em": _pct(em_atr - em_ctr), "dev_f1": _pct(f1_atr - f1_ctr),
        "trc": mean("same", rows), "trcf": mean("same_correct", rows), "m": len(rows),
        "per_entity": breakdown("entity_type"), "per_language": breakdown("language"),
    }


# -- reference retrieval: IDF-weighted cosine top-k, ties broken by pool
# order, with the toolkit's arithmetic so that equal scores tie the same way.

def _tokens(text: str) -> list[str]:
    return _NON_WORD.sub(" ", text.lower()).split()


def reference_demos(pool: list[str], query: str, k: int) -> list[int]:
    """Positions in `pool` of the k demonstrations a semantic style picks."""
    n = len(pool)
    df = Counter(t for text in pool for t in set(_tokens(text)))
    unseen = math.log(1 + n) + 1.0

    def vector(text):
        return {t: c * (math.log((1 + n) / (1 + df[t])) + 1.0 if t in df else unseen)
                for t, c in Counter(_tokens(text)).items()}

    def cosine(a, b):
        dot = sum(v * b[t] for t, v in a.items() if t in b)
        na = math.sqrt(sum(v * v for v in a.values()))
        nb = math.sqrt(sum(v * v for v in b.values()))
        return dot / (na * nb) if dot else 0.0

    q = vector(query)
    scores = [cosine(q, vector(text)) if q else 0.0 for text in pool]
    return sorted(range(n), key=lambda i: (-scores[i], i))[:k]


def check_retrieval(dataset: list[dict], prompts: list[dict], shots: int) -> list[str]:
    """Recompute the demonstrations of every target."""
    failures = []
    by_target = {(p["instance_id"], p["reference_kind"]): p["prompt"] for p in prompts}
    for arm in ARMS:
        for target in dataset:
            pool = [d for d in dataset if d["id"] != target["id"]
                    and d["language"] == target["language"]]
            texts = [d[f"query_{arm}"] for d in pool]
            expected = [texts[j] for j in reference_demos(texts, target[f"query_{arm}"], shots)]
            prompt = by_target[(target["id"], arm)]
            shown = [line[len("Question: "):] for line in prompt.split("\n")
                     if line.startswith("Question: ")][:-1]
            if shown != expected:
                failures.append(f"{target['id']}/{arm}: demos {shown} != reference {expected}")
    return failures


def check_first_iteration(workload: str, n_instances: int, inputs: Path, out: Path,
                          seed: int) -> list[str]:
    """Checks against references; later iterations are held to this one's digests."""
    failures = []

    def expect(ok: bool, message: str):
        if not ok:
            failures.append(message)

    if workload != "collect-cold":
        dataset = read_rows(out / "dataset.jsonl")
        expect(len(dataset) == n_instances,
               f"dataset has {len(dataset)} instances, expected {n_instances}")
        prompts = [r for ref in ARMS for r in read_rows(out / f"prompts_{ref}.jsonl")]
        expect(len(prompts) == 2 * n_instances, f"{len(prompts)} prompts rendered")
    if workload == "semantic-prompt":
        return failures + check_retrieval(dataset, prompts, shots=3)

    table = json.loads((inputs / "table.json").read_text(encoding="utf-8"))
    rule = AnswerRule(table, seed)
    questions = {row["id"]: row for row in table}
    responses = read_rows(out / "responses.jsonl")
    for row in responses:
        question = questions[row["instance_id"]][row["reference_kind"]]
        if workload == "collect-cold" and row["instance_id"] in rule.failing_ids:
            expect(row["error"] is not None and row["raw_completion"] == "",
                   f"{row['instance_id']}/{row['reference_kind']} should have failed")
        else:
            expect(row["error"] is None and row["raw_completion"] == rule.completion[question]
                   and row["answer"] == first_line(row["raw_completion"]),
                   f"{row['instance_id']}/{row['reference_kind']}: wrong completion {row!r}")
    if workload == "collect-cold":
        return failures

    expect(prompts == read_rows(inputs / "prompts.jsonl"),
           "rendered prompts differ from those the cache was pre-filled for")
    answers = {inst["id"]: tuple(first_line(rule.completion[inst[f"query_{arm}"]])
                                 for arm in ARMS) for inst in dataset}
    produced = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    expected = reference_eval(dataset, answers)
    expect(produced == expected,
           f"eval.json differs from the reference:\n  got      {produced}\n  expected {expected}")
    return failures


def response_metrics(out: Path) -> dict[str, float]:
    """error_rate and scored_errored_pairs from one iteration's outputs."""
    if not (out / "responses.jsonl").exists():
        return {"error_rate": 0.0, "metrics.scored_errored_pairs": 0}
    responses = read_rows(out / "responses.jsonl")
    arms: dict[str, list] = {}
    for row in responses:
        arms.setdefault(row["instance_id"], []).append(row["error"])
    clean_pairs = sum(1 for errors in arms.values()
                      if len(errors) == 2 and not any(errors))
    scored = json.loads((out / "eval.json").read_text(encoding="utf-8"))["m"]
    return {
        "error_rate": sum(1 for r in responses if r["error"]) / len(responses),
        "metrics.scored_errored_pairs": max(scored - clean_pairs, 0),
    }
