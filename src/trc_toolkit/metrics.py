"""Consistency and factuality metrics over paired responses.

Per-pair scores compare the two answers a model gave for one instance (one
per temporal reference) against each other and against the gold answer.
Aggregates are percentages rounded half-even to two decimals.
"""

from __future__ import annotations

import statistics
import string
import unicodedata
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    DuplicateInstanceId,
    DuplicateResponse,
    EmptyInput,
    LengthMismatch,
    MalformedRecord,
    MissingGold,
    MixedModels,
    UnknownInstanceId,
    ZeroVariance,
)
from .manifest import JsonRecord, encode_json
from .querygen import BenchmarkInstance, check_reference_kind
from .translation import clipped_count

_ARTICLES = {"a", "an", "the"}


class _PunctToSpace(dict):
    """`str.translate` table: ASCII punctuation and Unicode category P to a
    space, every other character to itself (a None would delete it). Each
    code point is filled in when first seen, since a table over all of
    Unicode would be slow to build at import."""

    def __missing__(self, code: int) -> str | int:
        char = chr(code)
        self[code] = value = (" " if char in string.punctuation
                              or unicodedata.category(char)[0] == "P" else code)
        return value


_PUNCT_TO_SPACE = _PunctToSpace()


def normalize_answer(text: str) -> list[str]:
    """NFKC, lowercase, punctuation to spaces, drop articles; returns tokens."""
    cleaned = unicodedata.normalize("NFKC", text).lower().translate(_PUNCT_TO_SPACE)
    return [t for t in cleaned.split() if t not in _ARTICLES]


def exact_match(pred: str, gold: str) -> int:
    return int(normalize_answer(pred) == normalize_answer(gold))


def _f1(pred_tokens: list[str], gold_tokens: list[str]) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = clipped_count(pred_tokens, gold_tokens)
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


@dataclass
class Response(JsonRecord):
    """The fields of a response row that `evaluate` reads; no model name reads as ""."""
    instance_id: str
    reference_kind: str
    answer: str
    error: str | None = None
    model_name: str = ""

    def __post_init__(self):
        check_reference_kind(self.reference_kind)


def pair_responses(responses: Iterable[Response]) -> list[ResponsePair]:
    """Pair each instance's two arms; a response with an error is no answer.

    A second response for one (instance id, reference kind) is rejected,
    since nothing tells which of the two to score. So is a second model name:
    the arms of two models would be scored as one model's.
    """
    seen: set[tuple[str, str]] = set()
    arms: dict[str, dict[str, str]] = {}
    model = None   # the first row's
    for response in responses:
        if model is None:
            model = response.model_name
        elif response.model_name != model:
            raise MixedModels(f"responses from two models, {model!r} and "
                              f"{response.model_name!r}, at instance {response.instance_id!r}")
        key = (response.instance_id, response.reference_kind)
        if key in seen:
            raise DuplicateResponse(f"second {key[1]} response for instance {key[0]!r}")
        seen.add(key)
        if not response.error:
            arms.setdefault(response.instance_id, {})[response.reference_kind] = response.answer
    return [ResponsePair(instance_id, answers["absolute"], answers["chronological"])
            for instance_id, answers in arms.items() if len(answers) == 2]  # both kinds


def _pct(x: float) -> float:
    return round(x, 2)


def _mean_pct(scores: Sequence[float]) -> float:
    return _pct(100 * sum(scores) / len(scores))


def _score_pair(pair: ResponsePair, gold: str) -> tuple:
    """The per-pair rule every aggregate is built from.

    Returns (em_a, em_c, f1_a, f1_c, identical, identical_and_correct), each
    answer normalised once.
    """
    a = normalize_answer(pair.answer_absolute)
    c = normalize_answer(pair.answer_chronological)
    g = normalize_answer(gold)
    identical = a == c
    return int(a == g), int(c == g), _f1(a, g), _f1(c, g), identical, identical and a == g


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


def referential_consistency(pairs: Sequence[ResponsePair]) -> float:
    """Percentage of pairs answered identically across the two references."""
    if not pairs:
        raise EmptyInput("no response pairs")
    # whether the arms are identical does not depend on the gold
    return _mean_pct([_score_pair(p, "")[4] for p in pairs])


def consistent_factuality(pairs: Sequence[ResponsePair], golds: Mapping[str, str]) -> float:
    """Percentage of pairs answered identically and correctly."""
    _require_golds(pairs, golds)
    return _mean_pct([_score_pair(p, golds[p.instance_id])[5] for p in pairs])


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
class EvalReport(JsonRecord):
    """Every aggregate of one run; a breakdown maps a name to (trc, trcf, count).

    `eval.json` is `to_dict()`; read back, the breakdown values are lists, and
    one that is not [number, number, integer] is a MalformedRecord.
    """
    em_ctr: float
    em_atr: float
    f1_ctr: float
    f1_atr: float
    dev_em: float
    dev_f1: float
    trc: float
    trcf: float
    m: int
    per_entity: dict[str, tuple[float, float, int]]
    per_language: dict[str, tuple[float, float, int]]
    # the types of a breakdown's (trc, trcf, count); a JSON number decodes as int or float
    _ROW_TYPES = {(trc, trcf, int) for trc in (int, float) for trcf in (int, float)}

    def __post_init__(self):
        for name in ("per_entity", "per_language"):
            for key, value in getattr(self, name).items():
                if type(value) not in (list, tuple) or \
                        tuple(map(type, value)) not in self._ROW_TYPES:
                    raise MalformedRecord(f"field {name!r} at {key!r} is {encode_json(value)}, "
                                          "expected [number, number, integer]")


def evaluate(dataset: Sequence[BenchmarkInstance], pairs: Sequence[ResponsePair]) -> EvalReport:
    """Aggregate every metric plus per-entity-type and per-language breakdowns.

    A dataset that repeats an instance id is rejected: which of the two
    instances a response is scored against would depend on row order. So
    is a second pair for one instance id, which would be scored twice.
    """
    if not pairs:
        raise EmptyInput("no response pairs")
    by_id: dict[str, BenchmarkInstance] = {}
    for inst in dataset:
        if inst.id in by_id:
            raise DuplicateInstanceId(inst.id, f"dataset repeats instance id {inst.id!r}")
        by_id[inst.id] = inst
    paired: set[str] = set()
    for pair in pairs:
        if pair.instance_id not in by_id:
            raise UnknownInstanceId(f"response for unknown instance {pair.instance_id!r}")
        if pair.instance_id in paired:
            raise DuplicateResponse(f"second response pair for instance {pair.instance_id!r}")
        paired.add(pair.instance_id)
    rows = [_score_pair(p, by_id[p.instance_id].answer) for p in pairs]
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
