"""Consistency and factuality metrics over paired responses.

Per-pair scores compare the two answers a model gave for one instance (one
per temporal reference) against each other and against the gold answer.
Aggregates are percentages rounded half-even to two decimals.
"""

from __future__ import annotations

import statistics
import string
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import (
    EmptyInput,
    LengthMismatch,
    MissingGold,
    UnknownInstanceId,
    ZeroVariance,
)
from .querygen import BenchmarkInstance

_ARTICLES = {"a", "an", "the"}
_PUNCT_TO_SPACE = str.maketrans(string.punctuation, " " * len(string.punctuation))


def normalize_answer(text: str) -> list[str]:
    """Lowercase, strip punctuation, drop articles; returns tokens."""
    cleaned = text.lower().translate(_PUNCT_TO_SPACE)
    return [t for t in cleaned.split() if t not in _ARTICLES]


def exact_match(pred: str, gold: str) -> int:
    return int(normalize_answer(pred) == normalize_answer(gold))


def _f1(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = sum((Counter(pred_tokens) & Counter(gold_tokens)).values())
    if common == 0:
        return 0.0
    precision = common / len(pred_tokens)
    recall = common / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def token_f1(pred: str, gold: str) -> float:
    """Multiset token overlap F1; both empty scores 1, only one empty 0."""
    return _f1(normalize_answer(pred), normalize_answer(gold))


@dataclass(frozen=True)
class ResponsePair:
    instance_id: str
    answer_absolute: str
    answer_chronological: str


def _pct(x: float) -> float:
    return round(x, 2)


def _mean_pct(scores: Sequence[float]) -> float:
    return _pct(100 * sum(scores) / len(scores))


def _score_pair(pair: ResponsePair, gold: str, strict: bool) -> tuple:
    """The per-pair rule every aggregate is built from.

    Returns (em_a, em_c, f1_a, f1_c, identical, identical_and_correct), each
    answer normalised once. `strict` compares raw strings for the last two.
    """
    a = normalize_answer(pair.answer_absolute)
    c = normalize_answer(pair.answer_chronological)
    g = normalize_answer(gold)
    if strict:
        identical = pair.answer_absolute == pair.answer_chronological
        correct = identical and pair.answer_absolute == gold
    else:
        identical = a == c
        correct = identical and a == g
    return int(a == g), int(c == g), _f1(a, g), _f1(c, g), identical, correct


def score_deviation(absolute_scores: Sequence[float],
                    chronological_scores: Sequence[float]) -> float:
    """ATR minus CTR: the difference of the two arms' rounded percentages.

    Rounding the arms first makes deviation = ATR - CTR hold exactly for the
    reported numbers.
    """
    if not absolute_scores or not chronological_scores:
        raise EmptyInput("no scores to aggregate")
    return _pct(_mean_pct(absolute_scores) - _mean_pct(chronological_scores))


def _require_golds(pairs: Sequence[ResponsePair], golds: Mapping[str, str]):
    if not pairs:
        raise EmptyInput("no response pairs")
    for pair in pairs:
        if pair.instance_id not in golds:
            raise MissingGold(f"no gold answer for {pair.instance_id!r}")


def factual_deviation(pairs: Sequence[ResponsePair], golds: Mapping[str, str],
                      scorer: str = "em") -> float:
    _require_golds(pairs, golds)
    arm = {"em": 0, "f1": 2}[scorer]
    rows = [_score_pair(p, golds[p.instance_id], False) for p in pairs]
    return score_deviation([r[arm] for r in rows], [r[arm + 1] for r in rows])


def referential_consistency(pairs: Sequence[ResponsePair], strict: bool = False) -> float:
    """Percentage of pairs answered identically across the two references."""
    if not pairs:
        raise EmptyInput("no response pairs")
    # whether the arms are identical does not depend on the gold
    return _mean_pct([_score_pair(p, "", strict)[4] for p in pairs])


def consistent_factuality(pairs: Sequence[ResponsePair], golds: Mapping[str, str],
                          strict: bool = False) -> float:
    """Percentage of pairs answered identically and correctly."""
    _require_golds(pairs, golds)
    return _mean_pct([_score_pair(p, golds[p.instance_id], strict)[5] for p in pairs])


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    if len(x) != len(y):
        raise LengthMismatch(f"{len(x)} vs {len(y)} values")
    if len(x) < 2:
        raise LengthMismatch("need at least two points")
    try:
        return statistics.correlation(x, y)
    except statistics.StatisticsError as exc:
        raise ZeroVariance(str(exc)) from exc


@dataclass
class EvalReport:
    em_ctr: float
    em_atr: float
    f1_ctr: float
    f1_atr: float
    dev_em: float
    dev_f1: float
    trc: float
    trcf: float
    m: int
    per_entity: dict[str, tuple[float, float, int]] = field(default_factory=dict)
    per_language: dict[str, tuple[float, float, int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "em_ctr": self.em_ctr, "em_atr": self.em_atr,
            "f1_ctr": self.f1_ctr, "f1_atr": self.f1_atr,
            "dev_em": self.dev_em, "dev_f1": self.dev_f1,
            "trc": self.trc, "trcf": self.trcf, "m": self.m,
            "per_entity": {k: list(v) for k, v in self.per_entity.items()},
            "per_language": {k: list(v) for k, v in self.per_language.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EvalReport":
        return cls(
            em_ctr=data["em_ctr"], em_atr=data["em_atr"],
            f1_ctr=data["f1_ctr"], f1_atr=data["f1_atr"],
            dev_em=data["dev_em"], dev_f1=data["dev_f1"],
            trc=data["trc"], trcf=data["trcf"], m=data["m"],
            per_entity={k: tuple(v) for k, v in data.get("per_entity", {}).items()},
            per_language={k: tuple(v) for k, v in data.get("per_language", {}).items()},
        )


def evaluate(dataset: Sequence[BenchmarkInstance], pairs: Sequence[ResponsePair],
             strict: bool = False) -> EvalReport:
    """Aggregate every metric plus per-entity-type and per-language breakdowns."""
    if not pairs:
        raise EmptyInput("no response pairs")
    by_id = {inst.id: inst for inst in dataset}
    for pair in pairs:
        if pair.instance_id not in by_id:
            raise UnknownInstanceId(f"response for unknown instance {pair.instance_id!r}")
    rows = [_score_pair(p, by_id[p.instance_id].answer, strict) for p in pairs]
    em_a, em_c, f1_a, f1_c, identical, correct = zip(*rows)

    def breakdown(attr: str):
        groups: dict[str, list[tuple]] = {}
        for pair, row in zip(pairs, rows):
            groups.setdefault(getattr(by_id[pair.instance_id], attr), []).append(row)
        return {name: (_mean_pct([r[4] for r in group]),
                       _mean_pct([r[5] for r in group]), len(group))
                for name, group in groups.items()}

    return EvalReport(
        em_ctr=_mean_pct(em_c), em_atr=_mean_pct(em_a),
        f1_ctr=_mean_pct(f1_c), f1_atr=_mean_pct(f1_a),
        dev_em=score_deviation(em_a, em_c),
        dev_f1=score_deviation(f1_a, f1_c),
        trc=_mean_pct(identical), trcf=_mean_pct(correct),
        m=len(pairs),
        per_entity=breakdown("entity_type"),
        per_language=breakdown("language"),
    )
