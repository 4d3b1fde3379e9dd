"""The stub endpoint's answer and fault rule.

Every decision is a function of a question's text and the workload seed, so
the order in which client threads reach the stub cannot change an answer, a
fault, or anything scored from them. The stub process, the benchmark set-up
(cache pre-fill) and the output checks all read the rule from here.
"""

from __future__ import annotations

import hashlib
import re

ARMS = ("absolute", "chronological")

# Fixed counts, not shares, so every seed injects the same number of faults
# and the real backoff sleeps they cause weigh the same in every run.
PERMANENT_FAILURES = 2   # instances whose both arms get 503 on every attempt
ONE_503 = 3              # prompts answered 503 once, then served
ONE_429 = 3              # prompts answered 429 (Retry-After: 0) once, then served

TRAILER = "I am fairly confident in this answer."

_REFERENCE_RX = re.compile(r"\bright (?:before|after) (.+?)\?$")


def _hash(*parts) -> int:
    text = "\x00".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def target_question(prompt: str) -> str:
    """The last question of a rendered prompt, the one the model must answer."""
    _, sep, tail = prompt.rpartition("Question: ")
    return tail.removesuffix("\nAnswer:") if sep else ""


def first_line(raw: str) -> str:
    """What answer extraction yields for a non-CoT completion."""
    return next((line.strip() for line in raw.splitlines() if line.strip()), "")


def anchor_of(query_chronological: str) -> str:
    """The reference event of a chronological query: a plausible wrong answer."""
    m = _REFERENCE_RX.search(query_chronological)
    if m is None:
        raise ValueError(f"no reference event in {query_chronological!r}")
    return m.group(1).strip()


def _pair(gold: str, anchor: str, h: int) -> tuple[str, str]:
    """(absolute, chronological) completions for one instance."""
    bucket, sub = h % 100, h // 100
    if bucket < 50:                       # gold on both arms
        return gold, gold
    if bucket < 65:                       # gold on one arm only
        return (gold, anchor) if sub % 2 else (anchor, gold)
    if bucket < 75:                       # the same wrong answer on both arms
        return anchor, anchor
    if bucket < 90:                       # a case, punctuation or article variant
        variant = (gold.lower(), gold.upper(), gold + ".", "The " + gold)[sub % 4]
        return (variant, gold) if (sub // 4) % 2 else (gold, variant)
    with_trailer = f"{gold}\n{TRAILER}"   # an extra line after the answer
    return with_trailer, with_trailer


class AnswerRule:
    """Completions and faults for a table of instances.

    `table` rows are {"id", "gold", "absolute", "chronological"}; the two
    query texts are the target questions the prompts end with.
    """

    def __init__(self, table: list[dict], seed: int):
        self.instance_of: dict[str, str] = {}
        self.completion: dict[str, str] = {}
        for row in table:
            answers = _pair(row["gold"], anchor_of(row["chronological"]),
                            _hash("answer", seed, row["chronological"]))
            for arm, answer in zip(ARMS, answers):
                question = row[arm]
                if question in self.instance_of:
                    raise ValueError(f"duplicate target question {question!r}")
                self.instance_of[question] = row["id"]
                self.completion[question] = answer
        ranked = sorted(table, key=lambda r: _hash("fail", seed, r["chronological"]))
        self.failing_ids = {r["id"] for r in ranked[:PERMANENT_FAILURES]}
        served = sorted((q for q, i in self.instance_of.items() if i not in self.failing_ids),
                        key=lambda q: _hash("transient", seed, q))
        self.once_503 = set(served[:ONE_503])
        self.once_429 = set(served[ONE_503:ONE_503 + ONE_429])
