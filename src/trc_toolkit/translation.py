"""String-based translation quality metrics: chrF++, BLEU-n, and a
trigram-profile language detector backing the translation success rate.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import add
from typing import Iterable, Iterator, Sequence

from .errors import EmptyInput, ProfileMissing


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


def _ngram_orders(seq: str | tuple[str, ...], max_order: int) -> list[list]:
    """The n-grams of each order 1..max_order of a string (substrings) or of
    a token tuple (tuples), in position order.

    Order n+1 is order n with the next unigram appended, one C-level
    concatenation per n-gram.
    """
    first = list(seq) if isinstance(seq, str) else list(zip(seq))
    orders = [first] if max_order >= 1 else []
    for n in range(1, max_order):
        orders.append(list(map(add, orders[-1], first[n:])))
    return orders


def _clipped(hyp: list, ref: list) -> int:
    """Clipped matches between two n-gram lists.

    When either side repeats no n-gram, each shared n-gram matches exactly
    once, so the count is the size of the two sets' intersection.
    """
    hyp_set = set(hyp)
    if len(hyp_set) == len(hyp):
        return len(hyp_set.intersection(ref))
    ref_set = set(ref)
    if len(ref_set) == len(ref):
        return len(ref_set & hyp_set)
    return _overlap(Counter(hyp), Counter(ref))


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
        for hyp_grams, ref_grams in zip(_ngram_orders(hyp, max_order),
                                        _ngram_orders(ref, max_order)):
            if not hyp_grams and not ref_grams:
                continue  # order longer than both strings
            if not hyp_grams or not ref_grams:
                scores.append(0.0)
                continue
            common = _clipped(hyp_grams, ref_grams)
            scores.append(_fbeta(common / len(hyp_grams), common / len(ref_grams), config.beta))
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
    orders = zip(_ngram_orders(hyp_tokens, max_order), _ngram_orders(ref_tokens, max_order))
    for order, (hyp_grams, ref_grams) in enumerate(orders, 1):
        total = len(hyp_grams)
        if total == 0:
            continue  # hypothesis shorter than this order
        matched = _clipped(hyp_grams, ref_grams)
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
            counts.update(_trigram_stream(text))
        total = sum(counts.values())
        if total == 0:
            raise EmptyInput(f"no trigrams in corpus for {language!r}")
        return cls(language, {t: c / total for t, c in counts.items()})


def _trigram_stream(text: str) -> Iterator[str]:
    """The text's character trigrams in position order, padded by a space."""
    padded = f" {_normalize_ws(text.lower())} "
    return map(add, map(add, padded, padded[1:]), padded[2:])


def _trigrams(text: str) -> Counter:
    return Counter(_trigram_stream(text))


def _profile_cosine(counts: Counter, norm: float, profile: LanguageProfile) -> float:
    """Cosine of trigram counts (whose norm is `norm`) and a profile."""
    freqs = profile.trigram_frequencies
    dot = sum([c * freqs.get(t, 0.0) for t, c in counts.items()])
    if dot == 0:
        return 0.0
    return dot / (norm * profile.norm)


def detect_language(text: str, profiles: Sequence[LanguageProfile]) -> str:
    if not profiles:
        raise ProfileMissing("no language profiles supplied")
    counts = _trigrams(text)
    norm = math.sqrt(sum(c * c for c in counts.values()))
    best = max(profiles, key=lambda p: _profile_cosine(counts, norm, p))
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
