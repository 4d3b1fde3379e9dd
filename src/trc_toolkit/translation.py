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


def _ngram_orders(seq: str | tuple[str, ...], top_order: int) -> list[list]:
    """The n-grams of each order 1..top_order of a string (substrings) or of
    a token tuple (tuples), in position order.

    Order n+1 is order n with the next unigram appended, one C-level
    concatenation per n-gram.
    """
    first = list(seq) if isinstance(seq, str) else list(zip(seq))
    orders = [first]
    for n in range(1, top_order):
        orders.append(list(map(add, orders[-1], first[n:])))
    return orders


# chrF++ (Popović, WMT 2017): character orders 1-6, word orders 1-2, beta 2;
# BLEU over orders 1-3.
_CHAR_ORDERS, _WORD_ORDERS, _BETA = 6, 2, 2.0
_BLEU_ORDERS = 3


def clipped_count(hyp: list, ref: list) -> int:
    """Clipped matches between two lists of n-grams or tokens: the smaller
    count of every item both sides hold.

    When the hypothesis repeats nothing, each shared item matches exactly
    once, so the count is the size of the two sets' intersection.
    """
    hyp_set = set(hyp)
    if len(hyp_set) == len(hyp):
        return len(hyp_set.intersection(ref))
    hyp_counts, ref_counts = Counter(hyp), Counter(ref)
    if len(ref_counts) < len(hyp_counts):
        hyp_counts, ref_counts = ref_counts, hyp_counts
    matched = 0
    for gram, count in hyp_counts.items():
        other = ref_counts.get(gram)
        if other:
            matched += count if count < other else other
    return matched


def _fbeta(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    b2 = _BETA * _BETA
    return (1 + b2) * precision * recall / (b2 * precision + recall)


def chrf_pp(hypothesis: str, reference: str) -> float:
    """Character+word n-gram F-beta averaged uniformly over orders, 0-100."""
    hypothesis = _normalize_ws(hypothesis)
    reference = _normalize_ws(reference)
    if not hypothesis and not reference:
        return 100.0
    if not hypothesis or not reference:
        return 0.0

    # character n-grams ignore spaces; word n-grams are over the tokens
    sides = [(hypothesis.replace(" ", ""), reference.replace(" ", ""), _CHAR_ORDERS),
             (tuple(hypothesis.split()), tuple(reference.split()), _WORD_ORDERS)]
    scores = []
    for hyp, ref, top_order in sides:
        for hyp_grams, ref_grams in zip(_ngram_orders(hyp, top_order),
                                        _ngram_orders(ref, top_order)):
            if not hyp_grams and not ref_grams:
                continue  # order longer than both strings
            if not hyp_grams or not ref_grams:
                scores.append(0.0)
                continue
            common = clipped_count(hyp_grams, ref_grams)
            scores.append(_fbeta(common / len(hyp_grams), common / len(ref_grams)))
    return 100 * sum(scores) / len(scores)


def bleu_n(hypothesis: str, reference: str) -> float:
    """BLEU-3: the modified n-gram precisions' geometric mean over orders 1-3,
    with brevity penalty, in [0, 1].

    Orders >= 2 take add-one smoothing (Chen & Cherry, WMT 2014), so a short
    string gets no hard zero; a hypothesis sharing no unigram scores 0.
    """
    hyp_tokens = tuple(hypothesis.split())
    ref_tokens = tuple(reference.split())
    if not hyp_tokens or not ref_tokens:
        return 0.0

    log_sum = 0.0
    used = 0
    orders = zip(_ngram_orders(hyp_tokens, _BLEU_ORDERS), _ngram_orders(ref_tokens, _BLEU_ORDERS))
    for order, (hyp_grams, ref_grams) in enumerate(orders, 1):
        total = len(hyp_grams)
        if total == 0:
            continue  # hypothesis shorter than this order
        matched = clipped_count(hyp_grams, ref_grams)
        if order > 1:
            precision = (matched + 1) / (total + 1)
        elif matched == 0:
            return 0.0
        else:
            precision = matched / total
        log_sum += math.log(precision)
        used += 1
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


def detect_language(text: str, profiles: Sequence[LanguageProfile]) -> str | None:
    """The most cosine-similar profile's language; the first on a tie, and None
    for a text that shares no trigram with any profile (a blank line, say)."""
    if not profiles:
        raise ProfileMissing("no language profiles supplied")
    counts = _trigrams(text)
    norm = math.sqrt(sum(c * c for c in counts.values()))
    score, best = max(((_profile_cosine(counts, norm, p), p) for p in profiles),
                      key=lambda scored: scored[0])
    return best.language if score else None


def translation_success_rate(texts: Sequence[str], expected: str,
                             profiles: Sequence[LanguageProfile]) -> float:
    """Percentage of texts whose nearest profile is the expected language; a
    text with no language (see `detect_language`) is a miss."""
    languages = {p.language for p in profiles}
    if expected not in languages:
        raise ProfileMissing(f"no profile for expected language {expected!r}")
    if len(languages) < 2:
        raise ProfileMissing("need at least one alternative language profile")
    if not texts:
        raise EmptyInput("no texts to classify")
    hits = sum(detect_language(t, profiles) == expected for t in texts)
    return 100 * hits / len(texts)
