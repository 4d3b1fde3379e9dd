"""String-based translation quality metrics: chrF++, BLEU-n, and a
trigram-profile language detector backing the translation success rate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

from .errors import EmptyInput, ProfileMissing


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _ngrams(seq: str | tuple[str, ...], order: int) -> Counter:
    """Counts of the order-grams of a string (substrings) or token tuple (tuples)."""
    return Counter([seq[i:i + order] for i in range(len(seq) - order + 1)])


def _overlap(hyp: Counter, ref: Counter) -> int:
    """Clipped matches: the smaller count of every n-gram both sides have."""
    if len(ref) < len(hyp):
        hyp, ref = ref, hyp
    matched = 0
    for gram, count in hyp.items():
        other = ref.get(gram)
        if other:
            matched += count if count < other else other
    return matched


@dataclass(frozen=True)
class ChrfConfig:
    char_ngram_max: int = 6
    word_ngram_max: int = 2
    beta: float = 2.0

    def __post_init__(self):
        if self.char_ngram_max < 1:
            raise ValueError("char_ngram_max must be >= 1")
        if self.beta <= 0:
            raise ValueError("beta must be > 0")


def _fbeta(precision: float, recall: float, beta: float) -> float:
    if precision + recall == 0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * precision * recall / (b2 * precision + recall)


def chrf_pp(hypothesis: str, reference: str, config: ChrfConfig = ChrfConfig()) -> float:
    """Character+word n-gram F-beta averaged uniformly over orders, 0-100."""
    hypothesis = _normalize_ws(hypothesis)
    reference = _normalize_ws(reference)
    if not hypothesis and not reference:
        return 100.0
    if not hypothesis or not reference:
        return 0.0

    # character n-grams ignore spaces; word n-grams are over the tokens
    sides = [(hypothesis.replace(" ", ""), reference.replace(" ", ""), config.char_ngram_max),
             (tuple(hypothesis.split()), tuple(reference.split()), config.word_ngram_max)]
    scores = []
    for hyp, ref, max_order in sides:
        for order in range(1, max_order + 1):
            total_hyp = max(0, len(hyp) - order + 1)
            total_ref = max(0, len(ref) - order + 1)
            if total_hyp == 0 and total_ref == 0:
                continue  # order longer than both strings
            if total_hyp == 0 or total_ref == 0:
                scores.append(0.0)
                continue
            common = _overlap(_ngrams(hyp, order), _ngrams(ref, order))
            scores.append(_fbeta(common / total_hyp, common / total_ref, config.beta))
    if not scores:
        return 0.0
    return 100 * sum(scores) / len(scores)


def bleu_n(hypothesis: str, reference: str, max_order: int = 3,
           smoothing: str = "add_one") -> float:
    """Modified n-gram precision geometric mean with brevity penalty, in [0, 1].

    add_one smoothing (applied to orders >= 2) avoids hard zeros on short
    strings; smoothing="none" is the strict definition.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    if smoothing not in ("none", "add_one"):
        raise ValueError(f"unknown smoothing {smoothing!r}")
    hyp_tokens = tuple(hypothesis.split())
    ref_tokens = tuple(reference.split())
    if not hyp_tokens or not ref_tokens:
        return 0.0

    log_sum = 0.0
    used = 0
    for order in range(1, max_order + 1):
        total = len(hyp_tokens) - order + 1
        if total <= 0:
            continue  # hypothesis shorter than this order
        matched = _overlap(_ngrams(hyp_tokens, order), _ngrams(ref_tokens, order))
        if smoothing == "add_one" and order > 1:
            precision = (matched + 1) / (total + 1)
        else:
            if matched == 0:
                return 0.0
            precision = matched / total
        log_sum += math.log(precision)
        used += 1
    if used == 0:
        return 0.0
    brevity = 1.0 if len(hyp_tokens) >= len(ref_tokens) else math.exp(
        1 - len(ref_tokens) / len(hyp_tokens))
    return brevity * math.exp(log_sum / used)


@dataclass(frozen=True)
class LanguageProfile:
    """Character-trigram frequency fingerprint for one language."""

    language: str
    trigram_frequencies: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.trigram_frequencies:
            total = sum(self.trigram_frequencies.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"trigram frequencies sum to {total}, expected 1")

    @cached_property
    def norm(self) -> float:
        return math.sqrt(sum(f * f for f in self.trigram_frequencies.values()))

    @classmethod
    def from_corpus(cls, language: str, texts: Iterable[str]) -> "LanguageProfile":
        counts: Counter = Counter()
        for text in texts:
            counts.update(_trigrams(text))
        total = sum(counts.values())
        if total == 0:
            raise EmptyInput(f"no trigrams in corpus for {language!r}")
        return cls(language, {t: c / total for t, c in counts.items()})


def _trigrams(text: str) -> Counter:
    padded = f" {_normalize_ws(text.lower())} "
    return Counter(padded[i:i + 3] for i in range(len(padded) - 2))


def _profile_cosine(counts: Counter, profile: LanguageProfile) -> float:
    freqs = profile.trigram_frequencies
    dot = sum(c * freqs.get(t, 0.0) for t, c in counts.items())
    if dot == 0:
        return 0.0
    na = math.sqrt(sum(c * c for c in counts.values()))
    return dot / (na * profile.norm)


def detect_language(text: str, profiles: Sequence[LanguageProfile]) -> str:
    if not profiles:
        raise ProfileMissing("no language profiles supplied")
    counts = _trigrams(text)
    best = max(profiles, key=lambda p: _profile_cosine(counts, p))
    return best.language


def translation_success_rate(texts: Sequence[str], expected: str,
                             profiles: Sequence[LanguageProfile]) -> float:
    """Percentage of texts whose nearest profile is the expected language."""
    languages = {p.language for p in profiles}
    if expected not in languages:
        raise ProfileMissing(f"no profile for expected language {expected!r}")
    if len(languages) < 2:
        raise ProfileMissing("need at least one alternative language profile")
    if not texts:
        raise EmptyInput("no texts to classify")
    hits = sum(detect_language(t, profiles) == expected for t in texts)
    return 100 * hits / len(texts)
